"""The benchmark's tracer still finds the layer boundaries it names.

``bench/tracing.py`` wraps library functions by name, from outside the
library; a function that moves or stops calling another would silently drop
a per-layer metric.  ``install`` rebinds module attributes for good, so it
runs in a subprocess of its own.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing
from qflagk import gkm, ringcore

tracer = tracing.Tracer()
tracing.install(tracer)
gkm.quaternionic_schubert_classes(3)
gkm.schubert_table(2)
try:
    ringcore.xpoly_divide_exact(ringcore.XPoly.X(2, 1), 1, 2)
except ringcore.NotDivisible:
    pass
values = {tau: ringcore.XPoly.zero(2) for tau in gkm.GKMTupleG.model.vertices(2)}
values[(1, 2)] = ringcore.XPoly.one(2)
violations = gkm.gkm_check_g(gkm.GKMTupleG(2, values))
names = [span[0] for span in tracer.spans]
spans = [[name, names[parent] if parent >= 0 else None]
         for name, _, _, parent in tracer.spans]
print(json.dumps({"spans": spans, "counts": tracer.counts, "violations": len(violations)}))
"""


def test_tracer_records_the_division_and_class_builders():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    names = {name for name, _ in report["spans"]}
    for span in (
        "ringcore.xpoly_divide_exact",
        "gkm.quaternionic_schubert_classes",
        "gkm.schubert_table",
    ):
        assert span in names, span
    counts = report["counts"]
    assert counts.get("gkm.schubert_table.builds") == 1
    # the failing division; the G-check's one failing edge takes its
    # witness from residues, without a division
    assert counts.get("ringcore.xpoly_divide_exact.fails") == 1
    assert report["violations"] == 1
    # an X-division is not a Laurent division: it records no divide_exact span
    assert ["ringcore.divide_exact", "ringcore.xpoly_divide_exact"] not in report["spans"]
    assert "ringcore.divide_exact" in names  # the T-table's Demazure steps
