"""SHA-256 pins of the report, plot and sampled outputs, in the standard library only.

``tests/test_cli.py`` checks the three pins under pytest.  Any other
interpreter can check them without pytest, from the root of the
repository:

    python3 tests/pinned_outputs.py

It prints one line per pin and exits 1 if any digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package beside tests/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treevrpsd.cli import main  # noqa: E402

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# SHA-256 of report's CSV and plot file on corpus/, pinned so that later
# changes keep the report byte for byte (CPython 3.10 to 3.13, Linux x86-64).
CORPUS_REPORT_SHA256 = "619998cab68ff5f301ce5f4e178118be3cc578ce559389c665c0d4d0a5b23407"
CORPUS_PLOT_SHA256 = "e36dc11d2dc7a7271fc3df27f4027e92e68b8eddd3a5e9057cbc9da7af0c3fec"

# SHA-256 over the Monte Carlo, trace, bounds and gen bytes, pinned like the
# report's (CPython 3.10 to 3.13, Linux x86-64).
SAMPLED_OUTPUTS_SHA256 = "b74dc7899f1e4ea11a6cc63dd8df8bc78718c34807a0d9deabdf9da2fb5eea7a"


def run_quietly(*argv: str) -> str:
    """Run one command and return its stdout; fail unless it exits 0 with an
    empty stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if (code, err.getvalue()) != (0, ""):
        raise AssertionError(f"{argv[0]} exited {code}: {err.getvalue()!r}")
    return out.getvalue()


def report_digests(corpus_dir: Path, workdir: Path) -> tuple[str, str]:
    """Digests of ``report``'s CSV and plot file on ``corpus_dir``."""
    out_csv = workdir / "report.csv"
    run_quietly("report", "--corpus-dir", str(corpus_dir), "--out-csv", str(out_csv))
    plot = workdir / "report.plot.csv"
    return (hashlib.sha256(out_csv.read_bytes()).hexdigest(),
            hashlib.sha256(plot.read_bytes()).hexdigest())


def sampled_outputs_digest(corpus_dir: Path, workdir: Path) -> str:
    """One digest over Monte Carlo estimates, traces and bounds of every
    document in ``corpus_dir``, then a generated caterpillar and its traces."""
    digest = hashlib.sha256()

    def add(*argv: str) -> None:
        digest.update(run_quietly(*argv).encode("utf-8"))

    for path in sorted(corpus_dir.glob("*.json")):
        for policy in ("split", "unsplit"):
            add("evaluate", "--instance", str(path), "--policy", policy,
                "--mode", "mc", "--samples", "200", "--seed", "7")
            add("simulate", "--instance", str(path), "--policy", policy, "--seed", "3")
        add("bounds", "--instance", str(path))
    generated = workdir / "caterpillar.json"
    run_quietly(
        "gen", "--n", "300", "--capacity", "10", "--topology", "caterpillar",
        "--pmf", "two:3,0.5,10", "--seed", "5", "--length-range", "0.5", "2.0",
        "--out", str(generated),
    )
    digest.update(generated.read_bytes())
    for policy in ("split", "unsplit"):
        add("simulate", "--instance", str(generated), "--policy", policy, "--seed", "3")
    return digest.hexdigest()


def check_pins() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        report, plot = report_digests(CORPUS_DIR, Path(tmp))
        got = {
            "CORPUS_REPORT_SHA256": (report, CORPUS_REPORT_SHA256),
            "CORPUS_PLOT_SHA256": (plot, CORPUS_PLOT_SHA256),
            "SAMPLED_OUTPUTS_SHA256": (sampled_outputs_digest(CORPUS_DIR, Path(tmp)), SAMPLED_OUTPUTS_SHA256),
        }
    version = sys.version.split()[0]
    for name, (digest, pinned) in got.items():
        print(f"{name} {'holds' if digest == pinned else f'differs: {digest}'} (Python {version})")
    return 0 if all(digest == pinned for digest, pinned in got.values()) else 1


if __name__ == "__main__":
    sys.exit(check_pins())
