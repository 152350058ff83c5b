"""Run the popdrift command: python -m popdrift <command> [options]."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
