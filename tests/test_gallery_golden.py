"""Every gallery face of the command line against its recorded report,
byte for byte.

The document runs `apply` and `gated-apply` on each kind, `frame-op` on
column-lower and `dual-apply` on upper-toeplitz, over four Specker
prefixes with an exact gate and with half of it, on two inputs at
precisions 16 and 40.  Each task's report, or the class and message of
its error, is compared with tests/gallery_golden.txt, so no printed
rational of a gallery face moves unnoticed.  To record the file again
after a deliberate change, run from the root of the checkout:

    PYTHONPATH=src python tests/test_gallery_golden.py > tests/gallery_golden.txt
"""

from pathlib import Path

from exactframes.cli import build_registry, load_document, run_task
from exactframes.realcore import SpeckerData

GOLDEN = Path(__file__).with_name("gallery_golden.txt")

PREFIXES = ("1,3", "3,1,2", "0,5", "empty")
KINDS = (("UT", "upper-toeplitz"), ("CL", "column-lower"),
         ("LT", "lower-toeplitz"))
# (operation, kind tag) of every face the command line offers
FACES = (("apply", "UT"), ("gated-apply", "UT"), ("dual-apply", "UT"),
         ("apply", "CL"), ("gated-apply", "CL"), ("frame-op", "CL"),
         ("apply", "LT"), ("gated-apply", "LT"))
INPUTS = ("f H 0:1 2:-3/5 5:7/4", "g H 1:1/3 3:-2 9:5/8")


def golden_document() -> str:
    lines = ["version 1", "space H infinite"]
    lines += [f"vector {v}" for v in INPUTS]
    names = []
    for p, enum in enumerate(PREFIXES):
        values = [] if enum == "empty" else [int(v) for v in enum.split(",")]
        mass = SpeckerData.from_prefix(values).sum_of_squares(len(values))
        for half, gate in (("", mass), ("x", mass / 2)):
            for tag, kind in KINDS:
                lines.append(f"gallery {tag}{p}{half} {kind} H enum {enum} "
                             f"gate {gate}")
            names.append(f"{p}{half}")
    for suffix in names:
        for op, tag in FACES:
            for v in ("f", "g"):
                for n in (16, 40):
                    lines.append(f"task {op} {tag}{suffix} {v} precision {n}")
    return "\n".join(lines) + "\n"


def golden_reports() -> str:
    doc = load_document(golden_document())
    reg = build_registry(doc)
    reports = []
    for i, task in enumerate(doc.tasks):
        try:
            reports.append(run_task(doc, i, registry=reg))
        except Exception as exc:
            reports.append(f"task {i} {task.op} {' '.join(task.args)}\n"
                           f"{type(exc).__name__}: {exc}")
    return "\n\n".join(reports) + "\n"


def test_gallery_reports_match_the_recording():
    assert golden_reports() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(golden_reports(), end="")
