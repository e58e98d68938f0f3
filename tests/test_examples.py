"""Execute every example script: the de-facto tutorials must not drift.

Each ``examples/*.py`` runs as a subprocess with tiny resolutions and a hard
timeout, in a scratch working directory (some examples write image files).
A new example file without an entry here fails the coverage check below, so
examples cannot silently fall out of the executed set either.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES_DIR = REPO_ROOT / "examples"

#: example file -> tiny-resolution argv (every example must appear here)
EXAMPLE_ARGS = {
    "quickstart.py": [],
    "cluster_experiment.py": [],
    "raytracing_static.py": ["24", "24", "threaded", "fused"],
    "raytracing_dynamic.py": ["threaded", "24", "24"],
    "render_service.py": ["24", "24", "threaded", "2", "2"],
    "gateway_demo.py": ["24", "24", "3"],
}

TIMEOUT_SECONDS = 120


def test_every_example_is_listed():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLE_ARGS), (
        "examples/ and EXAMPLE_ARGS disagree; add tiny-resolution args for "
        f"new examples: {sorted(on_disk.symmetric_difference(EXAMPLE_ARGS))}"
    )


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs_clean(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *EXAMPLE_ARGS[name]],
        cwd=tmp_path,  # examples may write images; keep the repo clean
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_SECONDS,
    )
    assert proc.returncode == 0, (
        f"{name} exited with {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )
