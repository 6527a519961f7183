"""The fixed input sets.

Each workload's inputs come from a workload seed fixed here, never from
the run's ``--seed``: the quality shares and layer counts must repeat
exactly from run to run.  The run's seed only orders the paper programs,
whose answers each start from cleared memos, so order can change neither
an answer nor a count.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from common import Item

SERVICE_SEED = 4242
SERVICE_PROGRAMS = 100
#: each service program is sent this many times: one miss, then hits
SERVICE_COPIES = 4

#: oracle process counts for the paper programs.  Mirrors the test
#: suite's ``corpus_inputs``: the transposes need a square / 2k^2 np and
#: read their grid shape from ``input()``; the rest run at 4 and 7.
DEFAULT_NP = (4, 7)
PAPER_NP = {
    "transpose_square": {4: (2, 2), 9: (3, 3), 16: (4, 4)},
    "transpose_rect": {8: (2, 4), 18: (3, 6)},
}


def paper_items() -> List[Item]:
    """The 18 registered paper programs, sorted by name."""
    from repro.lang import programs

    items = []
    for spec in programs.all_specs():
        shapes = PAPER_NP.get(spec.name)
        if shapes is None:
            items.append(Item(spec.name, spec.source, DEFAULT_NP))
        else:
            items.append(Item(spec.name, spec.source, tuple(sorted(shapes)), dict(shapes)))
    return items


def generated_items(seed: int, count: int) -> List[Item]:
    """``count`` generator programs from one base seed, in stream order."""
    from repro.corpus.generator import generate, seed_stream

    items = []
    for program_seed in seed_stream(seed, count):
        generated = generate(program_seed)
        items.append(Item(generated.corpus_id, generated.source, generated.np_values))
    return items


def service_items() -> List[Item]:
    return generated_items(SERVICE_SEED, SERVICE_PROGRAMS)


def presentation_order(items: Sequence, seed: int) -> List:
    """The items shuffled by ``seed`` (deterministically)."""
    shuffled = list(items)
    random.Random(f"perfbench-order:{seed}").shuffle(shuffled)
    return shuffled
