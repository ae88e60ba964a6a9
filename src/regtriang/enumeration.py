"""Breadth-first enumeration of regular triangulations via flips.

The search runs level-synchronously: every flip neighbor of the current
frontier is generated serially, the regularity decisions run in sorted
order (optionally across a worker pool), and accepted triangulations form
the next frontier. The result is therefore identical for any worker
count. Visited and rejected candidates are remembered as short blake2b
digests; encodings are only kept on disk or when collecting.
"""

import multiprocessing
from dataclasses import dataclass
from hashlib import blake2b
from os import path as os_path

from .checkpoint import CheckpointWriter, read_checkpoint
from .errors import BudgetExceeded, CheckFailed, DigestMismatch
from .geometry import PointConfiguration
from .triangulation import Triangulation, engine, flip, placing_triangulation, supported_flips

DEFAULT_BUDGET = 2_000_000


@dataclass
class EnumerationResult:
    count: int
    complete: bool
    encodings: list | None = None


def _digest(enc):
    return blake2b(enc.encode(), digest_size=12).digest()


def _neighbor_encodings(config, enc):
    t = Triangulation.decode(config, enc)
    out = []
    for circ in supported_flips(t):
        out.append(flip(t, circ).encode())
    return out


_WORKER = {}


def _init_worker(points):
    cfg = PointConfiguration(points)
    _WORKER["config"] = cfg
    _WORKER["engine"] = engine(cfg)


def _decide(enc):
    cfg = _WORKER["config"]
    eng = _WORKER["engine"]
    t = Triangulation.decode(cfg, enc)
    return eng.regular_quick(t.masks)[0]


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
    level = 0
    partial = set()

    state = None
    if checkpoint_path and resume and os_path.exists(checkpoint_path):
        state = read_checkpoint(checkpoint_path)
        # no digest: the file was cut inside its header
        if state.config_digest not in (None, config.digest()):
            raise DigestMismatch(
                f"checkpoint is for configuration {state.config_digest}, "
                f"not {config.digest()}"
            )
        if state.frontier is None:
            state = None  # killed before its first commit: start afresh
    if state is not None:
        for enc in state.accepted:
            visited.add(_digest(enc))
            if collect:
                encodings.append(enc)
            if on_accept:
                on_accept(enc)
        count = len(state.accepted)
        if state.done:
            return EnumerationResult(count, True, encodings)
        partial = {_digest(enc) for enc in state.post_commit}
        frontier = list(state.frontier)
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
        seed_enc = placing_triangulation(config).encode()
        if not eng.regular_quick(Triangulation.decode(config, seed_enc).masks)[0]:
            raise CheckFailed(f"placing triangulation {seed_enc} not certified regular")
        visited.add(_digest(seed_enc))
        count = 1
        if collect:
            encodings.append(seed_enc)
        if writer:
            writer.record(seed_enc)
            writer.commit(0, [seed_enc], count)
        if on_accept:
            on_accept(seed_enc)
        frontier = [seed_enc]

    pool = None
    try:
        if jobs > 1:
            pool = multiprocessing.Pool(jobs, _init_worker, (config.points,))
        while frontier:
            cand = set()
            for enc in frontier:
                cand.update(_neighbor_encodings(config, enc))
            todo = []
            next_frontier = []
            for enc in sorted(cand):
                d = _digest(enc)
                if d in visited:
                    if d in partial:
                        next_frontier.append(enc)
                    continue
                if d in rejected:
                    continue
                todo.append(enc)
            if pool and len(todo) >= jobs * 4:
                chunk = max(1, len(todo) // (jobs * 8))
                decisions = pool.map(_decide, todo, chunksize=chunk)
            else:
                decisions = [
                    eng.regular_quick(Triangulation.decode(config, enc).masks)[0]
                    for enc in todo
                ]
            for enc, ok in zip(todo, decisions):
                d = _digest(enc)
                if ok:
                    visited.add(d)
                    count += 1
                    next_frontier.append(enc)
                    if writer:
                        writer.record(enc)
                    if collect:
                        encodings.append(enc)
                    if on_accept:
                        on_accept(enc)
                else:
                    rejected.add(d)
            partial = set()
            level += 1
            frontier = sorted(next_frontier)
            if writer:
                writer.commit(level, frontier, count)
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
