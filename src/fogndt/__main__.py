"""``python -m fogndt``: the ``fogndt`` command."""
from .cli import entrypoint

entrypoint()
