"""The three benchmark workloads.

Each workload turns the run's seed into its inputs, runs one operation at
a time through the command-line front end in this process
(``drcw.cli.main(argv)``), and checks the outputs afterwards with
checks.py. A round is one pass over ``keys()``; every run attempts whole
rounds, so every run does the same mix of work.

Seeds reach the program only as the ``--seed`` of the design commands
(the rounding draws); sizes and null orders are fixed per workload so an
operation's cost does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from drcw import cli

import checks

GRID = 8192
N_PAIR = 64
SHA_CHUNK = 1 << 20


def call(argv: list[str]) -> int:
    """Run one drcw command in-process with its printed output discarded.
    The module attribute is looked up per call so tracing can wrap it."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            while chunk := f.read(SHA_CHUNK):
                h.update(chunk)
    return h.hexdigest()


def _prsl_indices(rng, extra=()) -> list[int]:
    """Grid indices re-derived by direct sum: both edges, zero Doppler,
    the null centers and four seeded points."""
    centers = {int(round((t + np.pi) / (2 * np.pi) * GRID)) % GRID for t in extra}
    picks = {0, GRID // 2, GRID - 1} | centers | set(int(i) for i in rng.integers(0, GRID, 4))
    return sorted(picks)


def _design_argv(m: int, window: str, nulls: list[str], seed: int, trials: int, out) -> list[str]:
    return [
        "design", "nm", "--m", str(m), "--n", str(N_PAIR), "--window", window, *nulls,
        "--seed", str(seed), "--trials", str(trials), "--grid", str(GRID), "-o", str(out),
    ]


class PaperTable:
    """One operation is one cell of the paper's metric table: an M=50 design
    with 10000 rounding trials and its metrics on the 8192-point grid."""

    name = "paper-table"
    CELLS = [(w, k0) for w in ("hamming", "rectangular") for k0 in range(10, 45, 5)]

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.design_seed = int(rng.integers(0, 2**31))
        self.prsl_indices = _prsl_indices(rng)
        self.dir = workdir

    def prepare(self) -> None:
        pass

    def keys(self):
        return self.CELLS

    def warmup(self) -> int:
        return self.op(self.CELLS[0])

    def _path(self, key) -> Path:
        return self.dir / f"{key[0]}-k{key[1]}.json"

    def op(self, key) -> int:
        window, k0 = key
        return call(_design_argv(50, window, ["--k0", str(k0)], self.design_seed, 10000,
                                 self._path(key)))

    def outputs(self, key):
        return [self._path(key)]

    def check(self) -> list[float]:
        sims = []
        for key in self.CELLS:
            doc = json.loads(self._path(key).read_text())
            if (doc["window"], doc["null_spec"]["k0"], doc["m"]) != (key[0], key[1], 50):
                raise checks.CheckFailure(f"{key}: document describes another cell")
            sims.append(checks.check_document(doc, self.prsl_indices))
        # The published values hold for the paper's seed 24; the timed cells
        # use the run's seed, so the table is run once more at 24.
        out = self.dir / "table.json"
        rc = call(["table", "--k0", "10,20,30", "--windows", "hamming,rectangular", "--m", "50",
                   "--n", str(N_PAIR), "--seed", "24", "--trials", "10000", "--grid", str(GRID),
                   "--format", "json", "-o", str(out)])
        if rc != 0:
            raise checks.CheckFailure(f"drcw table exited {rc}")
        rows = json.loads(out.read_text())
        if {(r["window"], r["k0"]) for r in rows} != set(checks.PAPER_CELLS):
            raise checks.CheckFailure("drcw table did not return the six published cells")
        for row in rows:
            checks.check_paper_row(row)
        return sims


class LargeM:
    """One operation is a fixed pass of three K=8 designs at M=256 and
    M=512 with 1000 rounding trials. Mixing single M=256 and M=512 designs
    as separate operations would make the median jump between two modes."""

    name = "large-m"
    CONFIGS = [
        (256, "hamming", ["--k0", "8"]),
        (256, "rectangular", ["--k0", "4", "--null", "0.8pi:2"]),
        (512, "hamming", ["--k0", "4", "--null", "0.5pi:1", "--null", "0.8pi:1"]),
    ]

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.design_seeds = [int(s) for s in rng.integers(0, 2**31, len(self.CONFIGS))]
        self.prsl_indices = _prsl_indices(rng, extra=(0.5 * np.pi, 0.8 * np.pi))
        self.dir = workdir

    def prepare(self) -> None:
        pass

    def keys(self):
        return ["pass"]

    def _path(self, i: int) -> Path:
        return self.dir / f"config{i}.json"

    def _design(self, i: int) -> int:
        m, window, nulls = self.CONFIGS[i]
        return call(_design_argv(m, window, nulls, self.design_seeds[i], 1000, self._path(i)))

    def warmup(self) -> int:
        # one M=256 design touches every code path of the pass at an
        # eighth of its cost
        return self._design(0)

    def op(self, key) -> int:
        return max(self._design(i) for i in range(len(self.CONFIGS)))

    def outputs(self, key):
        return [self._path(i) for i in range(len(self.CONFIGS))]

    def check(self) -> list[float]:
        sims = []
        for i, (m, window, _) in enumerate(self.CONFIGS):
            doc = json.loads(self._path(i).read_text())
            if (doc["m"], doc["window"]) != (m, window):
                raise checks.CheckFailure(f"config {i}: document describes another design")
            sims.append(checks.check_document(doc, self.prsl_indices))
        return sims


class ExportVerify:
    """One operation is `drcw analyze --svg` of a design document followed by
    `drcw verify` of it. The documents are designed in set-up, so the timed
    work is export and re-analysis only."""

    name = "export-verify"
    DOCS = {
        "two-zone": ("hamming", ["--k0", "20", "--null", "0.8pi:4"]),
        "rect-k20": ("rectangular", ["--k0", "20"]),
    }
    CAF_FILES = ("prsl.csv", "doppler.csv", "caf.csv", "prsl.svg", "doppler.svg", "caf.svg")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.design_seeds = {k: int(rng.integers(0, 2**31)) for k in self.DOCS}
        self.prsl_indices = _prsl_indices(rng, extra=(0.8 * np.pi,))
        lags = 2 * N_PAIR - 1
        # the zero-lag zero-Doppler peak, the first and last rows, and five
        # seeded rows of the caf.csv body
        self.caf_rows = sorted(
            {0, (N_PAIR - 1) * GRID + GRID // 2, lags * GRID - 1}
            | set(int(r) for r in rng.integers(0, lags * GRID, 5))
        )
        self.dir = workdir

    def _doc(self, key) -> Path:
        return self.dir / f"{key}.json"

    def prepare(self) -> None:
        for key, (window, nulls) in self.DOCS.items():
            rc = call(_design_argv(50, window, nulls, self.design_seeds[key], 1000, self._doc(key)))
            if rc != 0:
                raise RuntimeError(f"designing document {key} failed with exit code {rc}")

    def keys(self):
        return list(self.DOCS)

    def warmup(self) -> int:
        return self.op(self.keys()[0])

    def op(self, key) -> int:
        rc = call(["analyze", str(self._doc(key)), "--out-dir", str(self.dir / key), "--svg"])
        return max(rc, call(["verify", str(self._doc(key))]))

    def outputs(self, key):
        return [self.dir / key / f for f in self.CAF_FILES]

    def _read_caf_rows(self, path: Path):
        wanted = set(self.caf_rows)
        rows, count = [], 0
        with open(path) as f:
            if f.readline().strip() != "lag,theta_rad,re,im,mag_db":
                raise checks.CheckFailure(f"{path.name}: unexpected header")
            for r, line in enumerate(f):
                count += 1
                if r in wanted:
                    lag, theta, re, im, db = line.split(",")
                    rows.append((r, int(lag), float(theta), float(re), float(im), float(db)))
        if count != (2 * N_PAIR - 1) * GRID:
            raise checks.CheckFailure(f"{path.name}: {count} rows, expected {(2 * N_PAIR - 1) * GRID}")
        return rows

    def _read_prsl(self, path: Path) -> list[float]:
        lines = path.read_text().splitlines()
        if lines[0] != "theta_rad,prsl_db" or len(lines) != GRID + 1:
            raise checks.CheckFailure(f"{path.name}: unexpected header or length")
        return [float(lines[i + 1].split(",")[1]) for i in self.prsl_indices]

    def check(self) -> list[float]:
        x1, x2 = checks.golay_pair(N_PAIR)
        sims = []
        for key in self.DOCS:
            doc = json.loads(self._doc(key).read_text())
            sims.append(checks.check_document(doc, self.prsl_indices))
            s, w = doc["s"], doc["w"]
            checks.check_prsl(s, w, x1, x2, GRID, self.prsl_indices,
                              self._read_prsl(self.dir / key / "prsl.csv"))
            checks.check_caf_rows(s, w, x1, x2, GRID, self._read_caf_rows(self.dir / key / "caf.csv"))
            bad = dict(doc, w=list(w))
            bad["w"][len(w) // 2] *= 1.001
            bad_path = self.dir / f"{key}-perturbed.json"
            bad_path.write_text(json.dumps(bad))
            checks.check_verify_rejects(call(["verify", str(bad_path)]))
        return sims


WORKLOADS = {cls.name: cls for cls in (PaperTable, LargeM, ExportVerify)}

