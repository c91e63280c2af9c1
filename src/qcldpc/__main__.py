from .cli import entrypoint

__all__ = ["entrypoint"]
if __name__ == "__main__":
    entrypoint()
