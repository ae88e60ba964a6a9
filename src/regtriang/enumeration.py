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
every candidate that has a hint. A version 3 checkpoint holds each
record's heights, which a resume checks on the record's fold rows, so
the level after it is hinted like any other. Only a resumed version 1 or
2 file, which holds no heights, leaves a level without hints; only such
candidates go to the worker pool, which is started the first time a
level has enough of them, and workers return their verdict alone.

One set holds every triangulation the walk has reached, added when it is
first queued, as its order-free 96-bit digest (Engine.digest: the sum of
its cells' blake2b keys), on the assumption that no two share one (odds
about n^2 / 2^97 for n triangulations, below 10^-17 for a million). A
neighbour's digest comes from its parent's and the keys of the cells the
flip changes, so a flip builds the mask tuple of a new candidate only.
"""

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
    certifies,
    engine,
    flip,
    flip_digest,
    placing_triangulation,
    supported_flips,
)

DEFAULT_BUDGET = 2_000_000


def _neighbor_encodings(t, circuits=None):
    """(digest, flipped circuit) of each flip neighbor of the triangulation,
    one per supported flip, the digest moved from t's (see flip_digest);
    `circuits` as for supported_flips."""
    digest = engine(t.config).digest(t.masks)
    return [(flip_digest(t, circ, digest), circ) for circ in supported_flips(t, circuits)]


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


def _record(config, enc, heights, path, trusted=False):
    """(masks, circuits) of a checkpointed record, its Engine.circuits pairs.

    The encoding must be the canonical encoding of a triangulation
    (Triangulation.validate, which solves no LP). Canonical is checked
    while parsing: each cell's text is the one its mask spells (labels
    ascending, each as str(int)), and cells ascend. Unless the record is
    `trusted` (one of a version 1 or 2 file, which holds no heights), its
    `heights` must be a list of one int per point on which every fold row
    is positive (certifies), read from the circuits validate built.
    """
    eng = engine(config)
    t = None
    try:
        if isinstance(enc, str):
            parts = enc.split(";")
            masks = [eng.cell_mask(part) for part in parts]
            codes = [eng.cell_code(m) for m in masks]
            if [text for _, text in codes] == parts and all(
                a < b for (a, _), (b, _) in zip(codes, codes[1:])
            ):
                t = Triangulation.from_masks(config, masks)
                t.validate()
    except (ValueError, DegenerateSimplex, VolumeMismatch, OverlapNotFace):
        t = None
    if t is None:
        raise CheckpointCorrupt(f"{path}: {enc!r} is not a triangulation encoding")
    if not trusted and not (
        type(heights) is list
        and len(heights) == eng.m
        and all(type(x) is int for x in heights)
        and certifies(t._circuits, heights)
    ):
        raise CheckpointCorrupt(f"{path}: the heights of {enc!r} do not certify it")
    return t.masks, t._circuits


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

    def accept(enc, heights):
        nonlocal count
        count += 1
        if writer:
            writer.record(enc, heights)
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
            heights = state.heights[k]
            masks, circuits = _record(config, enc, heights, checkpoint_path, state.version < 3)
            if k < state.closed:  # committed; no writer yet, so nothing is recorded again
                seen.add(eng.digest(masks))
                accept(enc, heights)
                if k >= state.opened:
                    masks = tuple(map(eng.cell_masks.setdefault, masks, masks))
                    frontier.append((masks, tuple(c for c, _ in circuits), heights))
            state.heights[k] = None  # checked; the frontier keeps its own
        if state.done:
            return count
        level = state.level
        writer = CheckpointWriter(
            checkpoint_path, append=True, valid_bytes=state.valid_bytes, version=state.version
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
        seen.add(eng.digest(seed.masks))
        accept(seed.encode(), heights)
        if writer:
            writer.commit(0, count)
        frontier = [(seed.masks, circuits, heights)]
        level = 0

    pool = None
    try:
        while frontier:
            fresh = {}  # digest -> (masks, hints) of each candidate first reached now
            for masks, circuits, heights in frontier:
                t = Triangulation.from_masks(config, masks)
                for d, circ in _neighbor_encodings(t, circuits):
                    if d in seen:
                        continue
                    candidate = fresh.get(d)
                    if candidate is None:
                        candidate = fresh[d] = (flip(t, circ).masks, [])
                    if heights is not None:
                        candidate[1].append((heights, circ))
            seen.update(fresh)
            todo = sorted(fresh.values())  # by mask tuple, no two of which are equal
            # candidates with no parent's heights go to the pool, the rest stay here
            unhinted = [masks for masks, hints in todo if not hints]
            pooled = None
            if jobs > 1 and len(unhinted) >= jobs * 4:
                if pool is None:
                    # imported here, as only a resumed version 1 or 2 walk gets here
                    import multiprocessing

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
                    accept(Triangulation.from_masks(config, masks).encode(), heights)
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
