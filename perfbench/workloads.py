"""Seeded benchmark inputs: the SpecWeb99-style docroot and the request
streams of the three workloads.

Everything here is a pure function of the seed, and nothing imports the
code under test: the server sees only the generated docroot and the
request bytes.

File set (SpecWeb99): each directory holds four classes of nine files;
file ``i`` (1..9) of class ``c`` is ``i * CLASS_BASE[c]`` bytes.  Class
access shares are 35/50/14/1 %, directory popularity is Zipf (alpha 1)
and files inside a class follow SpecWeb99's tent profile.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

CLASS_BASE = (102, 1024, 10240, 102400)
CLASS_SHARE = (35, 50, 14, 1)  # percent, per block of 100 requests
FILE_PROFILE = (3.9, 5.9, 8.8, 17.7, 25.7, 17.7, 8.8, 5.9, 3.9)
_PROFILE_CUM = list(itertools.accumulate(FILE_PROFILE))

ABSENT = (404, -1, -1)


@dataclass(frozen=True)
class Request:
    """One request of a stream: what to send and what must come back."""

    path: str
    status: int      # 200, or 404 for an absent path
    length: int      # body bytes for a 200 (-1 for a 404)
    crc: int         # CRC32 of the body for a 200 (-1 for a 404)

    def wire(self, close: bool) -> bytes:
        conn = b"Connection: close\r\n" if close else b""
        return (b"GET " + self.path.encode() + b" HTTP/1.1\r\nHost: bench\r\n"
                + conn + b"\r\n")


def _rng(seed: int, label: str) -> random.Random:
    # A string seed is hashed deterministically (not via hash()).
    return random.Random(f"{seed}/{label}")


def file_path(d: int, c: int, i: int) -> str:
    return f"/dir{d:05d}/class{c}_{i}"


def file_bytes(seed: int, path: str, size: int, block: bytes) -> bytes:
    """Body of one file: a per-file header, then the seed's random block
    repeated.  Distinct per file and per seed, cheap to make."""
    head = f"{seed}:{path}:".encode()
    reps = size // len(block) + 2
    return (head + block * reps)[:size]


def make_docroot(root: str, seed: int, dirs: int,
                 classes: Sequence[int]) -> Dict[str, Tuple[int, int, int]]:
    """Write the file set under ``root``; returns path -> (200, len, crc)."""
    block = _rng(seed, "block").randbytes(65536)
    table = {}
    for d in range(dirs):
        os.makedirs(os.path.join(root, f"dir{d:05d}"), exist_ok=True)
        for c in classes:
            for i in range(1, 10):
                path = file_path(d, c, i)
                body = file_bytes(seed, path, i * CLASS_BASE[c], block)
                with open(root + path, "wb") as fh:
                    fh.write(body)
                table[path] = (200, len(body), zlib.crc32(body))
    return table


class _Picker:
    """Zipf directory + tent-profile file choice."""

    def __init__(self, rng: random.Random, dirs: int):
        self.rng = rng
        self.dir_cum = list(itertools.accumulate(
            1.0 / (d + 1) for d in range(dirs)))

    def pick_dir(self) -> int:
        return bisect.bisect(self.dir_cum,
                             self.rng.random() * self.dir_cum[-1])

    def pick(self, c: int) -> str:
        d = self.pick_dir()
        i = bisect.bisect(_PROFILE_CUM,
                          self.rng.random() * _PROFILE_CUM[-1]) + 1
        return file_path(d, c, i)


def _class_block(classes: Sequence[int]) -> List[int]:
    """Classes of one stratified block: exact SpecWeb99 shares, so every
    100 requests carry the same byte mix whatever the seed."""
    return [c for c in classes for _ in range(CLASS_SHARE[c])]


def request_stream(seed: int, label: str, count: int, dirs: int,
                   classes: Sequence[int],
                   table: Dict[str, Tuple[int, int, int]],
                   absent_every: int = 0) -> List[Request]:
    """``count`` requests for one phase.

    Class shares are stratified per block (see :func:`_class_block`);
    the files of class 3 cycle through a shuffled permutation so the
    1 % of large bodies does not swing the byte mix between seeds.
    ``absent_every=n`` makes exactly one request in each block of ``n``
    (at a seeded position) ask for a path that does not exist.
    """
    rng = _rng(seed, label)
    picker = _Picker(rng, dirs)
    block: List[int] = []
    big: List[int] = []
    out: List[Request] = []
    absent_at = -1
    for n in range(count):
        if not block:
            block = _class_block(classes)
            rng.shuffle(block)
        if absent_every and n % absent_every == 0:
            absent_at = n + rng.randrange(absent_every)
        if n == absent_at:
            d = rng.randrange(dirs)
            out.append(Request(f"/dir{d:05d}/absent_{rng.randrange(10**6)}",
                               *ABSENT))
            continue
        c = block.pop()
        if c == 3:
            if not big:
                big = list(range(1, 10))
                rng.shuffle(big)
            path = file_path(picker.pick_dir(), 3, big.pop())
        else:
            path = picker.pick(c)
        out.append(Request(path, *table[path]))
    return out


def arrivals(seed: int, label: str, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds from phase start) at ``rate``/s."""
    rng = _rng(seed, label + "/arrivals")
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def warmup_stream(table: Dict[str, Tuple[int, int, int]],
                  max_class: int) -> List[Request]:
    """Every file of class <= ``max_class``, once, in path order."""
    return [Request(p, *table[p]) for p in sorted(table)
            if int(p.partition("/class")[2][0]) <= max_class]
