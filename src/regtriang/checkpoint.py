"""Append-only JSONL checkpoints for long enumeration runs.

Layout: a header line, then one "v" record per accepted triangulation in
acceptance order, a "commit" record closing each search level with the
next frontier inline, and a final "done" record. A resumed run needs all
v records (the visited set), the last commit (the active frontier) and
the v records after it (acceptances from the level that was interrupted).
A trailing partial line from a killed writer is tolerated, and so is a
file cut inside its header line, which holds nothing yet; corruption
anywhere else is an error.
"""

import json
import os

from .errors import CheckpointCorrupt

MAGIC = "regtriang-checkpoint"
VERSION = 1
# every header begins so, its keys being sorted
_HEADER_START = '{"config": '


class CheckpointWriter:
    def __init__(self, path, config_digest=None, params=None, append=False, valid_bytes=None):
        if append:
            self.fh = open(path, "r+")
            if valid_bytes is not None:
                self.fh.seek(valid_bytes)
                self.fh.truncate()
            else:
                self.fh.seek(0, 2)
            if self.fh.tell() > 0:
                self.fh.seek(self.fh.tell() - 1)
                if self.fh.read(1) != "\n":
                    self.fh.write("\n")
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

    def commit(self, level, frontier, count):
        line = {"t": "commit", "level": level, "frontier": list(frontier), "count": count}
        self.fh.write(json.dumps(line) + "\n")
        self.fh.flush()
        os.fsync(self.fh.fileno())

    def done(self, count):
        self.fh.write(json.dumps({"t": "done", "count": count}) + "\n")
        self.fh.flush()
        self.fh.close()

    def close(self):
        if not self.fh.closed:
            self.fh.flush()
            self.fh.close()


class CheckpointState:
    def __init__(self):
        self.config_digest = None
        self.params = {}
        self.accepted = []  # all v encodings in file order
        self.frontier = None  # from the last commit, None if none committed
        self.level = 0
        self.post_commit = []  # v encodings after the last commit
        self.done = False
        self.valid_bytes = 0  # extent of intact records, for safe appends


def read_checkpoint(path):
    state = CheckpointState()
    with open(path) as fh:
        data = fh.read()
    if "\n" not in data and (
        _HEADER_START.startswith(data) or data.startswith(_HEADER_START)
    ):
        return state  # cut inside the header: no configuration, no frontier
    lines = data.split("\n")
    ends_with_newline = data.endswith("\n")
    if ends_with_newline:
        lines.pop()
    records = []
    offset = 0
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if last:
                break  # partial trailing line from an interrupted write
            raise CheckpointCorrupt(f"{path}: bad record on line {i + 1}")
        offset += len(line) + (1 if (not last or ends_with_newline) else 0)
    state.valid_bytes = offset
    if not records:
        raise CheckpointCorrupt(f"{path}: no complete records")
    head = records[0]
    if not isinstance(head, dict) or head.get("magic") != MAGIC:
        raise CheckpointCorrupt(f"{path}: missing header")
    if head.get("version") != VERSION:
        raise CheckpointCorrupt(f"{path}: unsupported version {head.get('version')}")
    state.config_digest = head.get("config")
    state.params = head.get("params", {})
    for rec in records[1:]:
        if state.done:
            raise CheckpointCorrupt(f"{path}: records after done marker")
        kind = rec.get("t")
        if kind == "v":
            state.accepted.append(rec["enc"])
            state.post_commit.append(rec["enc"])
        elif kind == "commit":
            state.frontier = rec["frontier"]
            state.level = rec["level"]
            if rec["count"] != len(state.accepted):
                raise CheckpointCorrupt(
                    f"{path}: commit count {rec['count']} != {len(state.accepted)} records"
                )
            state.post_commit = []
        elif kind == "done":
            if rec["count"] != len(state.accepted):
                raise CheckpointCorrupt(f"{path}: done count mismatch")
            state.done = True
        else:
            raise CheckpointCorrupt(f"{path}: unknown record type {kind!r}")
    return state
