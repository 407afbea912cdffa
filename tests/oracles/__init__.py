"""Test oracles: dynamic ground truth the static analyses are checked
against (determinacy races from a trace, value ranges from TXU firings)."""
