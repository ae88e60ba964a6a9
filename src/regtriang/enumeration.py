"""Breadth-first enumeration of regular triangulations via flips.

The walk is level-synchronous and runs on cell masks: the frontier, the
candidates and the pool's tasks are sorted tuples of cell bitmasks. Every
flip neighbor of the frontier is generated serially, the regularity
decisions are merged in sorted order, and the accepted triangulations
form the next frontier, so the result is the same for any worker count.
A triangulation is encoded once, when accepted; encodings are decoded
only when a checkpoint resumes.

A frontier entry carries what its decision computed: its mask tuple, the
circuits of its fold rows (shared Circuit objects, each once), which its
expansion reads instead of building the list again, and its primitive
integer heights. A candidate keeps, in frontier order, references to the
heights of every parent that reached it and to the circuit each one
flipped: the hints `regular_quick` tries first. When they fail, a
refutation the engine cached from an earlier LP rejection, or the first
hint's heights repaired in integers, usually decides, and the LP runs
only when neither does; every rejection carries a checked dual
certificate, from the LP or from the cache. The parent process decides
every candidate that has a hint. A checkpoint holds no heights, so the
first level after a resume has none; only such candidates go to the
worker pool, which is started the first time a level has enough of
them, and workers return their verdict alone.

One set holds every triangulation the walk has reached, added when it is
first queued, as a 96-bit blake2b digest of its mask tuple, on the
assumption that no two share one (odds about n^2 / 2^97 for n
triangulations, below 10^-17 for a million).
"""

import multiprocessing
from hashlib import blake2b
from os import path as os_path

from .checkpoint import CheckpointWriter, read_checkpoint
from .errors import (
    BudgetExceeded,
    CheckFailed,
    CheckpointCorrupt,
    DegenerateSimplex,
    DigestMismatch,
    OverlapNotFace,
    VolumeMismatch,
)
from .geometry import PointConfiguration
from .triangulation import (
    Triangulation,
    engine,
    flip,
    placing_triangulation,
    supported_flips,
)

DEFAULT_BUDGET = 2_000_000


def _digest(masks):
    return blake2b(repr(masks).encode(), digest_size=12).digest()


def _neighbor_encodings(config, masks, circuits=None):
    """(mask tuple, flipped circuit) of each flip neighbor, one per
    supported flip; `circuits` as for supported_flips."""
    t = Triangulation.from_masks(config, masks)
    return [(flip(t, circ).masks, circ) for circ in supported_flips(t, circuits)]


def _decisions(eng, todo):
    """(ok, circuits, heights) of each (masks, hints) in turn: one circuit
    list per candidate serves its decision and, if it is accepted, its
    expansion."""
    for masks, hints in todo:
        circuits = eng.circuits(masks)
        ok, heights = eng.regular_quick(masks, circuits, hints)
        yield ok, tuple(c for c, _ in circuits) if ok else None, heights


_WORKER = {}


def _init_worker(points):
    _WORKER["engine"] = engine(PointConfiguration(points))


def _decide(masks):
    return _WORKER["engine"].regular_quick(masks)[0]


def _record_masks(config, enc, path):
    """Cell masks of a checkpointed encoding, which must be the canonical
    encoding of a triangulation (Triangulation.validate, which solves no
    LP). Canonical is checked while parsing: each cell's text is the one
    its mask spells (labels ascending, each as str(int)), and cells
    ascend. Its regularity is trusted, not certified again."""
    try:
        if isinstance(enc, str):
            eng = engine(config)
            parts = enc.split(";")
            masks = [eng.cell_mask(part) for part in parts]
            codes = [eng.cell_code(m) for m in masks]
            if [text for _, text in codes] == parts and all(
                a < b for (a, _), (b, _) in zip(codes, codes[1:])
            ):
                t = Triangulation.from_masks(config, masks)
                if t.validate():
                    return t.masks
    except (ValueError, DegenerateSimplex, VolumeMismatch, OverlapNotFace):
        pass
    raise CheckpointCorrupt(f"{path}: {enc!r} is not a triangulation encoding")


def enumerate_regular(
    config,
    *,
    jobs=1,
    budget=DEFAULT_BUDGET,
    checkpoint_path=None,
    resume=False,
    on_accept=None,
):
    """The number of regular triangulations of the configuration, by BFS.

    The flip graph of regular triangulations is connected, so the walk
    from the placing triangulation reaches every one of them. on_accept
    is called once per accepted encoding, in acceptance order. A resumed
    run first replays the acceptances its checkpoint committed, in file
    order, and then walks the level after the last commit again, so the
    stream and the finished file are the same as an uninterrupted run's.
    Raises BudgetExceeded, after flushing the checkpoint, when the
    accepted count reaches the budget with work still pending.
    """
    eng = engine(config)
    seen = set()
    count = 0
    writer = None

    def accept(enc):
        nonlocal count
        count += 1
        if writer:
            writer.record(enc)
        if on_accept:
            on_accept(enc)

    state = None
    if checkpoint_path and resume and os_path.exists(checkpoint_path):
        state = read_checkpoint(checkpoint_path)
        # no digest: the file was cut inside its header
        if state.config_digest not in (None, config.digest()):
            raise DigestMismatch(
                f"checkpoint is for configuration {state.config_digest}, "
                f"not {config.digest()}"
            )
        if state.closed is None:
            state = None  # killed before its first commit: start afresh
    if state is not None:
        frontier = []
        for k, enc in enumerate(state.accepted):
            masks = _record_masks(config, enc, checkpoint_path)
            if k < state.closed:  # committed; no writer yet, so nothing is recorded again
                seen.add(_digest(masks))
                accept(enc)
                if k >= state.opened:
                    frontier.append((tuple(map(eng.cell_masks.setdefault, masks, masks)), None, None))
        if state.done:
            return count
        level = state.level
        writer = CheckpointWriter(
            checkpoint_path, append=True, valid_bytes=state.valid_bytes
        )
    else:
        if checkpoint_path:
            writer = CheckpointWriter(
                checkpoint_path,
                config_digest=config.digest(),
                params={"budget": budget, "jobs": jobs},
            )
        seed = placing_triangulation(config)
        ok, circuits, heights = next(_decisions(eng, [(seed.masks, ())]))
        if not ok:
            raise CheckFailed(f"placing triangulation {seed.encode()} not certified regular")
        seen.add(_digest(seed.masks))
        accept(seed.encode())
        if writer:
            writer.commit(0, count)
        frontier = [(seed.masks, circuits, heights)]
        level = 0

    pool = None
    try:
        while frontier:
            fresh = {}  # digest -> (masks, hints) of each candidate first reached now
            for masks, circuits, heights in frontier:
                for nb, circ in _neighbor_encodings(config, masks, circuits):
                    d = _digest(nb)
                    if d in seen:
                        continue
                    if d not in fresh:
                        fresh[d] = (nb, [])
                    if heights is not None:
                        fresh[d][1].append((heights, circ))
            seen.update(fresh)
            todo = sorted(fresh.values())  # by mask tuple, no two of which are equal
            # candidates with no parent's heights go to the pool, the rest stay here
            unhinted = [masks for masks, hints in todo if not hints]
            pooled = None
            if jobs > 1 and len(unhinted) >= jobs * 4:
                if pool is None:
                    pool = multiprocessing.Pool(jobs, _init_worker, (config.points,))
                chunk = max(1, len(unhinted) // (jobs * 8))
                pooled = iter(pool.map(_decide, unhinted, chunksize=chunk))
            served = _decisions(eng, [c for c in todo if c[1] or pooled is None])
            frontier = []
            for masks, hints in todo:
                if hints or pooled is None:
                    ok, circuits, heights = next(served)
                else:
                    ok, circuits, heights = next(pooled), None, None
                if ok:
                    accept(Triangulation.from_masks(config, masks).encode())
                    frontier.append((masks, circuits, heights))
            level += 1
            if writer:
                writer.commit(level, count)
            if count >= budget and frontier:
                raise BudgetExceeded(
                    f"enumeration stopped at {count} triangulations "
                    f"(budget {budget}); the checkpoint can be resumed"
                )
        if writer:
            writer.done(count)
            writer = None
        return count
    finally:
        if writer:
            writer.close()
        if pool:
            pool.terminate()
            pool.join()
