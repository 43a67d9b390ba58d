"""The repository benchmark: see run.py and spec.json."""
