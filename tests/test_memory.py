"""Memory stays bounded over long runs: repeating tasks on one registry
must not grow what the library keeps alive."""

import gc
import tracemalloc

from exactframes.cli import build_registry, load_document, run_task

DOC = """\
version 1
space H infinite
vector f H 0:1/2 1:1/3
vector e1 H 1:1
sumspace SS H
sumvec X SS 0@f 2@e1
sumvec Y SS 1@e1 3@f
gframe W H diagonal 0:2
task sum-inner X Y precision 24
task sum-inner X X precision 40
task reconstruct W f precision 12
task reconstruct W e1 precision 16
"""

# a leak of one small object per iteration would exceed this over the
# 150 iterations between the two readings
SLACK_BYTES = 4096


def test_repeated_tasks_keep_memory_flat():
    doc = load_document(DOC)
    reg = build_registry(doc)
    readings = {}
    tracemalloc.start()
    try:
        for iteration in range(1, 201):
            for index in range(len(doc.tasks)):
                run_task(doc, index, registry=reg)
            if iteration in (50, 200):
                gc.collect()
                readings[iteration] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert readings[200] - readings[50] <= SLACK_BYTES
