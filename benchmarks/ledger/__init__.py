"""Perf ledger: the repo's benchmark (see README.md next to this file).

Imported as the top-level package ``ledger`` by ``run.py``, which puts
this directory's parent on ``sys.path``; nothing under ``src/`` imports it.
"""
