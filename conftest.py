# Present so pytest puts the repository root on sys.path, which lets the
# test modules import their shared helpers as `tests._oracles` etc. from
# any working directory. The `pythonpath` setting in pyproject.toml puts
# `src/` on sys.path of the test process; the CLI tests also start
# `python -m teamfield` in subprocesses, which find an uninstalled
# checkout through PYTHONPATH, so `src/` goes there too. No fixtures
# live here.
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
