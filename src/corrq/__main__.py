"""`python -m corrq`: the corrq command line (see corrq.cli)."""

if __name__ == "__main__":
    from .cli import entrypoint
    entrypoint()
