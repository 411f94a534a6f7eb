"""Host-time benchmark of the OASIS reproduction (see ``run.py``)."""
