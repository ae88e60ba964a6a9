"""Append-only JSONL checkpoints for long enumeration runs.

Layout (version 2): a header line, then one "v" record per accepted
triangulation in acceptance order, a {"t": "commit", "level", "count"}
record closing each search level, and a final "done" record. The frontier
a commit opens is the v records since the previous commit. A resumed run
replays the v records up to the last commit and walks the level after it
again: the v records written after the last commit are read and checked
like the others, then dropped, and the writer truncates the file at the
last commit and writes that level anew.
Version 1 commits also repeat their frontier; the reader ignores that
copy and otherwise reads both versions alike.
A trailing partial line from a killed writer (one without its newline)
is tolerated, and so is a file cut inside its header line, which holds
nothing yet; corruption anywhere else is an error.
"""

import json
import os
from itertools import chain

from .errors import CheckpointCorrupt

MAGIC = "regtriang-checkpoint"
VERSION = 2
# every header begins so, its keys being sorted
_HEADER_START = b'{"config": '


class CheckpointWriter:
    def __init__(self, path, config_digest=None, params=None, append=False, valid_bytes=None):
        if append:  # after the last commit read_checkpoint found
            os.truncate(path, valid_bytes)
            self.fh = open(path, "a")
        else:
            self.fh = open(path, "w")
            header = {
                "magic": MAGIC,
                "version": VERSION,
                "config": config_digest,
                "params": params or {},
            }
            self.fh.write(json.dumps(header, sort_keys=True) + "\n")
            self.fh.flush()

    def record(self, enc):
        self.fh.write(json.dumps({"t": "v", "enc": enc}) + "\n")

    def commit(self, level, count):
        self.fh.write(json.dumps({"t": "commit", "level": level, "count": count}) + "\n")
        self.fh.flush()
        os.fsync(self.fh.fileno())

    def done(self, count):
        self.fh.write(json.dumps({"t": "done", "count": count}) + "\n")
        self.fh.close()

    def close(self):
        self.fh.close()


class CheckpointState:
    def __init__(self):
        self.config_digest = None
        self.accepted = []  # all v encodings in file order
        # the last commit's frontier is accepted[opened:closed], and the
        # records after it are accepted[closed:]; closed is None if none committed
        self.opened = 0
        self.closed = None
        self.level = 0
        self.done = False
        self.valid_bytes = 0  # extent up to the header, last commit or done, for appends


def _count(path, rec, key):
    value = rec.get(key)
    if type(value) is not int or value < 0:
        raise CheckpointCorrupt(f"{path}: {rec.get('t')} record has no valid {key!r}")
    return value


def read_checkpoint(path):
    """The state a checkpoint file holds, read one line at a time.

    The encodings are returned as written; checking them against the
    configuration is left to the caller.
    """
    state = CheckpointState()
    offset = 0
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.endswith(b"\n") and (
            _HEADER_START.startswith(first) or first.startswith(_HEADER_START)
        ):
            return state  # cut inside the header: no configuration, no frontier
        for number, line in enumerate(chain([first], fh), 1):
            if not line.endswith(b"\n"):
                break  # partial trailing line from an interrupted write
            try:
                rec = json.loads(line)
            except ValueError:
                raise CheckpointCorrupt(f"{path}: bad record on line {number}")
            offset += len(line)
            if number == 1:
                if not isinstance(rec, dict) or rec.get("magic") != MAGIC:
                    raise CheckpointCorrupt(f"{path}: missing header")
                if rec.get("version") not in (1, VERSION):
                    raise CheckpointCorrupt(f"{path}: unsupported version {rec.get('version')}")
                state.config_digest = rec.get("config")
                state.valid_bytes = offset
                continue
            if state.done:
                raise CheckpointCorrupt(f"{path}: records after done marker")
            kind = rec.get("t") if isinstance(rec, dict) else None
            if kind == "v":
                state.accepted.append(rec.get("enc"))
            elif kind == "commit":
                state.level = _count(path, rec, "level")
                count = _count(path, rec, "count")
                if count != len(state.accepted):
                    raise CheckpointCorrupt(
                        f"{path}: commit count {count} != {len(state.accepted)} records"
                    )
                state.opened, state.closed = state.closed or 0, count
            elif kind == "done":
                if _count(path, rec, "count") != len(state.accepted):
                    raise CheckpointCorrupt(f"{path}: done count mismatch")
                state.done = True
            else:
                raise CheckpointCorrupt(f"{path}: unknown record type {kind!r}")
            if kind != "v":  # a resumed writer keeps the file up to here
                state.valid_bytes = offset
    if not state.valid_bytes:
        raise CheckpointCorrupt(f"{path}: no complete records")
    return state
