"""Layered benchmark of the HIERAS simulator (see ``run.py``)."""
