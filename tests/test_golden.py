"""The full ``verify`` report, pinned byte for byte.

``tests/data/verify_all_seed3_n12.json`` is the JSON report of every suite
over the standard fixture and 12 random fixtures drawn with seed 3. A change
that alters any verdict, count, gate, note or witness, or the order or
formatting of the report, fails here. When such a change is intended,
regenerate the file from the root of a checkout and review its diff:

    roughpart verify --suite all --seed 3 --random-count 12 --format json \\
        --out tests/data/verify_all_seed3_n12.json
"""

from __future__ import annotations

from pathlib import Path

from roughpart.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed3_n12.json"


def test_verify_all_report_matches_golden_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--seed", "3",
                 "--random-count", "12", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
