"""Breadth-first enumeration of regular triangulations via flips.

The walk is level-synchronous and runs on cell masks: the frontier, the
candidates and the pool's tasks are sorted tuples of cell bitmasks. Every
flip neighbor of the frontier is generated serially, the regularity
decisions run in sorted order (optionally across a worker pool), and the
accepted triangulations form the next frontier, so the result is the same
for any worker count. A triangulation is encoded once, when accepted;
encodings are decoded only when a checkpoint resumes. Visited and rejected
triangulations are kept as 96-bit blake2b digests of the mask tuple, on the
assumption that no two share one (odds about n^2 / 2^97 for n
triangulations, below 10^-17 for a million).
"""

import multiprocessing
from dataclasses import dataclass
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
from .triangulation import Triangulation, engine, flip, placing_triangulation, supported_flips

DEFAULT_BUDGET = 2_000_000


@dataclass
class EnumerationResult:
    count: int
    complete: bool
    encodings: list | None = None


def _digest(masks):
    return blake2b(repr(masks).encode(), digest_size=12).digest()


def _neighbor_encodings(config, masks):
    """Mask tuples of the flip neighbors, one per supported flip."""
    t = Triangulation.from_masks(config, masks)
    return [flip(t, circ).masks for circ in supported_flips(t)]


_WORKER = {}


def _init_worker(points):
    _WORKER["engine"] = engine(PointConfiguration(points))


def _decide(masks):
    return _WORKER["engine"].regular_quick(masks)[0]


def _record_masks(config, enc, path):
    """Cell masks of a checkpointed encoding, which must be the canonical
    encoding of a triangulation (Triangulation.validate, which solves no
    LP). Its regularity is trusted, not certified again."""
    try:
        t = Triangulation.decode(config, enc) if isinstance(enc, str) else None
        if t is not None and t.encode() == enc and t.validate():
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
    collect=False,
):
    """All regular triangulations of the configuration, counted by BFS.

    The flip graph of regular triangulations is connected, so the walk
    from the placing triangulation reaches every one of them. on_accept
    is called once per accepted encoding, in acceptance order: a resumed
    run first replays every acceptance its checkpoint holds, in file
    order, and then continues the search, so the stream is the same as
    the collected encodings. Raises BudgetExceeded, after flushing the
    checkpoint, when the accepted count reaches the budget with work
    still pending.
    """
    eng = engine(config)
    visited = set()
    rejected = set()
    count = 0
    encodings = [] if collect else None
    writer = None

    def accept(masks, enc):
        nonlocal count
        visited.add(_digest(masks))
        count += 1
        if writer:
            writer.record(enc)
        if collect:
            encodings.append(enc)
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
        tail = []  # masks of the records from the last commit's frontier on
        for k, enc in enumerate(state.accepted):  # no writer yet, so nothing is recorded again
            masks = _record_masks(config, enc, checkpoint_path)
            accept(masks, enc)
            if k >= state.opened:
                tail.append(masks)
        if state.done:
            return EnumerationResult(count, True, encodings)
        split = state.closed - state.opened
        frontier = [tuple(map(eng.cell_masks.setdefault, m, m)) for m in tail[:split]]
        partial = {_digest(m) for m in tail[split:]}
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
        if not eng.regular_quick(seed.masks)[0]:
            raise CheckFailed(f"placing triangulation {seed.encode()} not certified regular")
        accept(seed.masks, seed.encode())
        if writer:
            writer.commit(0, count)
        frontier = [seed.masks]
        level = 0
        partial = set()

    pool = None
    try:
        if jobs > 1:
            pool = multiprocessing.Pool(jobs, _init_worker, (config.points,))
        while frontier:
            next_frontier = []
            cand = {}
            for masks in frontier:
                for nb in _neighbor_encodings(config, masks):
                    d = _digest(nb)
                    if d in partial:  # accepted before the interruption: not decided again
                        partial.remove(d)
                        next_frontier.append(nb)
                    elif d not in visited and d not in rejected:
                        cand[d] = nb
            todo = sorted(cand.values())
            if pool and len(todo) >= jobs * 4:
                chunk = max(1, len(todo) // (jobs * 8))
                decisions = pool.map(_decide, todo, chunksize=chunk)
            else:
                decisions = [eng.regular_quick(masks)[0] for masks in todo]
            for masks, ok in zip(todo, decisions):
                if ok:
                    accept(masks, Triangulation.from_masks(config, masks).encode())
                    next_frontier.append(masks)
                else:
                    rejected.add(_digest(masks))
            partial = set()
            level += 1
            frontier = next_frontier
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
        return EnumerationResult(count, True, encodings)
    finally:
        if writer:
            writer.close()
        if pool:
            pool.terminate()
            pool.join()
