"""Determinism corpus: small runs whose outputs must stay byte-identical.

Each cell is (family, n, algorithm, --mm override, seed, fast_forward,
round_cap). A cell with a round cap must hit it, and its digests are those of
the partial result that ``RoundCapExceeded`` carries. For every cell
``corpus.json`` holds the sha256 of the sorted matching pairs, of
``trace.as_dict()``, of the NDJSON message log as ``write_message_log``
writes it and of the verifier's report, ``verify_run(...).to_json()``. A refactor that changes any simulated output fails here in
seconds. A change that means to alter outputs re-records the file and says
why:

    PYTHONPATH=src python tests/test_corpus.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from helpers import instance_to_json
from matchsim import (
    AlgorithmSpec,
    RoundCapExceeded,
    GeneratorSpec,
    MatchingSubroutineSpec,
    generate,
    run_algorithm,
)
from matchsim import cli
from matchsim.analysis import verify_run
from matchsim.model import Matching
from matchsim.engine import Engine
from matchsim.workbench import save_instance, save_matching, write_message_log

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"


class Cell(NamedTuple):
    family: str
    n: int
    algorithm: str
    mm: str | None
    seed: int
    fast_forward: bool = True
    round_cap: int | None = None

    @property
    def name(self) -> str:
        mm = f"/{self.mm}" if self.mm else ""
        ff = "" if self.fast_forward else "/step-all"
        cap = "" if self.round_cap is None else f"/cap{self.round_cap}"
        return f"{self.family}:n{self.n}:{self.algorithm}{mm}:s{self.seed}{ff}{cap}"


CELLS = (
    Cell("complete", 16, "gs", None, 0),
    Cell("random:0.5", 24, "gs", None, 1),
    Cell("complete", 32, "asm:0.5", None, 2),
    Cell("complete", 32, "asm:1", "rand:1", 3),
    Cell("random:0.5", 48, "asm:1", "amm:1,0.99", 1),
    Cell("random:0.3", 48, "randasm:0.5,0.1", None, 5),
    Cell("bounded:4", 64, "randasm:0.5,0.1", None, 6),
    Cell("bounded:3", 32, "randasm:0.5,0.1", "amm:0.1,0.1", 7),
    Cell("aregular:2,4", 32, "aregasm:0.5,0.1,2", None, 8),
    Cell("complete", 6, "asm:1", None, 9, fast_forward=False),
    Cell("random:0.6", 6, "randasm:1,0.1", "rand:3", 10, fast_forward=False),
    Cell("aregular:2,2", 6, "aregasm:1,0.5,2", None, 11, fast_forward=False),
    Cell("random:0.5", 24, "asm:0.5", "det", 12),
    Cell("random:0.5", 24, "randasm:0.5,0.1", "det", 13),
    Cell("complete", 8, "gs", None, 14, fast_forward=False),
    Cell("random:0.6", 6, "asm:1", "amm:1,0.99", 15, fast_forward=False),
    Cell("complete", 128, "asm:0.5", None, 16),
    Cell("complete", 96, "asm:1", "rand:2", 17),
    Cell("bounded:6", 128, "randasm:0.5,0.1", None, 18),
    Cell("bounded:8", 128, "randasm:0.5,0.1", "amm:0.1,0.1", 19),
    Cell("random:0.3", 48, "gs", None, 20),
    Cell("random:0.5", 128, "gs", None, 21),
    Cell("bounded:4", 64, "gs", None, 22),
    Cell("bounded:2", 32, "gs", None, 23, fast_forward=False),
    Cell("aregular:2,2", 16, "aregasm:1,0.5,2", None, 24, fast_forward=False),
    Cell("aregular:2,4", 24, "aregasm:1,0.5,2", None, 25, fast_forward=False),
    Cell("aregular:2,8", 128, "aregasm:0.5,0.1,2", None, 26),
    Cell("complete", 16, "asm:0.5", None, 27, round_cap=300),
    Cell("complete", 12, "gs", None, 28, round_cap=40),
    Cell("bounded:4", 32, "randasm:0.5,0.1", None, 29, round_cap=500),
    Cell("random:0.5", 12, "asm:1", "rand:2", 30, fast_forward=False, round_cap=150),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _cli_verify(profile, matching: Matching, tmp: Path) -> bytes:
    """Standard output and exit code of ``matchsim verify`` on saved files of the
    matching and of its every-other-pair sub-matching."""
    save_instance(profile, tmp / "instance.json")
    out = []
    for name, m in (("result", matching), ("halved", Matching.of(matching.sorted_pairs()[::2]))):
        save_matching(m, tmp / f"{name}.json")
        argv = ["verify", "--instance", str(tmp / "instance.json"), "--matching", str(tmp / f"{name}.json"),
                "--eps", "0.25", "--threshold", "0.125"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        out.append(f"{printed.getvalue()}exit {code}\n")
    return "".join(out).encode("utf-8")


def run_cell(cell: Cell) -> dict[str, str]:
    """Run one cell and return the digests of its matching, trace, message log, report,
    instance file and file-based verify."""
    profile = generate(GeneratorSpec.parse(cell.family, n=cell.n, seed=cell.seed))
    mm = MatchingSubroutineSpec.parse(cell.mm) if cell.mm else None
    spec = AlgorithmSpec.parse(cell.algorithm, mm=mm)
    log: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "fast_forward", cell.fast_forward)
        try:
            result = run_algorithm(profile, spec, seed=cell.seed, round_cap=cell.round_cap, message_log=log)
            if cell.round_cap is not None:
                raise AssertionError(f"{cell.name} finished within its round cap")
        except RoundCapExceeded as exc:
            if cell.round_cap is None:
                raise
            result = exc.partial
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        write_message_log(log, path)
        log_bytes = path.read_bytes()
        cli_verify = _cli_verify(profile, result.matching, Path(tmp))
    return {
        "matching": _sha256(_canonical(result.matching.sorted_pairs())),
        "trace": _sha256(_canonical(result.trace.as_dict())),
        "log": _sha256(log_bytes),
        "verify": _sha256(verify_run(profile, result).to_json().encode("utf-8")),
        "instance": _sha256(instance_to_json(profile).encode("utf-8")),
        "cli_verify": _sha256(cli_verify),
    }


def _load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def test_corpus_lists_every_cell_once():
    assert len({c.name for c in CELLS}) == len(CELLS)
    assert sorted(_load_corpus()) == sorted(c.name for c in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: c.name)
def test_outputs_match_corpus(cell):
    assert run_cell(cell) == _load_corpus()[cell.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --record")
    corpus = {cell.name: run_cell(cell) for cell in CELLS}
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} cells in {CORPUS_PATH}")
