"""The benchmark's workloads: fixed sequences of ellstab CLI commands.

Each workload is a list of commands run one after another, each in its own
child process.  The seed sets the only inputs that vary: the sieve's
``--seed``, the rank CSV read by ``stability`` and the sample of curves the
traced run classifies one by one.  Inputs are generated here without
importing ellstab, so a change to the package cannot change its own inputs.

Why these workloads (two, not more: see run.py on why a run lasts about a
minute and what that allows):

- ``per_curve`` is work done curve by curve over small boxes: two box-wide
  surjectivity sweeps (the galois_image stage-1 and stage-2 witness passes,
  the per-prime census tables, and for ell=17 the 2^(ell-1) unit table),
  then per-curve frobenius_trace calls into the trace cache (store) and
  stability verdicts (matgroup, ingest).  It builds no box larger than X=10
  and does no sieve statistics or class numbers.
- ``box_stats`` is box-wide counting and tables: the X=24 box (31.8M curves,
  1.4 GB peak RSS) for the variance statistic, the trace-twin decay, the
  curve counts, the Deuring census (the p < 200 census tables again) and the
  Hurwitz table.  No galois_image, store or stability work.
"""

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240101

#: size of the seeded X=10 sample that the traced run classifies curve by curve
SAMPLE_X = 10
SAMPLE_SIZE = 200


@dataclass(frozen=True)
class Command:
    key: str  # stable id, used for golden digests
    sub: str  # CLI subcommand; per-layer metric cli.<sub>_s
    argv: tuple[str, ...]
    seeded: bool = False  # stdout depends on the seed
    check_stderr: bool = False  # stderr carries a seed-dependent result


@dataclass(frozen=True)
class Inputs:
    seed: int
    ranks_csv: Path
    cache_path: Path
    ranks: dict  # (A, B) -> rank, as written to ranks_csv


def per_curve(inp: Inputs) -> list[Command]:
    return [
        Command("per_curve/image-X10-ell5", "image",
                ("image", "--X", "10", "--ell", "5", "--prime-bound", "1000")),
        Command("per_curve/image-X8-ell17", "image",
                ("image", "--X", "8", "--ell", "17", "--prime-bound", "1000")),
        Command("per_curve/trace", "trace",
                ("trace", "--X", "3", "--ell", "5", "--prime-bound", "1000",
                 "--cache", str(inp.cache_path))),
        # the rank CSV reaches only the stderr summary (its rank1_ds column)
        Command("per_curve/stability", "stability",
                ("stability", "--X", "3", "--ell", "13", "--prime-bound", "1000",
                 "--degree", "2", "--ranks", str(inp.ranks_csv)),
                check_stderr=True),
    ]


def box_stats(inp: Inputs) -> list[Command]:
    sieve_seed = abs(inp.seed)
    return [
        Command("box_stats/sieve", "sieve",
                ("sieve", "--X-list", "20,24", "--ell", "5", "--t1", "1", "--t2", "2",
                 "--d", "1", "--samples", "200000", "--seed", str(sieve_seed)),
                seeded=True),
        Command("box_stats/decay", "decay",
                ("decay", "--A", "-1", "--B", "-1", "--X-list", "5,10,15,20",
                 "--ell", "5", "--prime-bound", "100")),
        Command("box_stats/countcheck", "countcheck",
                ("countcheck", "--X-list", "10,20,30,40")),
        Command("box_stats/census", "census", ("census", "--prime-bound", "199")),
        Command("box_stats/hurwitz", "hurwitz",
                ("hurwitz", "--ell", "5", "--prime-bound", "20000")),
    ]


WORKLOADS = {"per_curve": per_curve, "box_stats": box_stats}


def seed_independent(cmd: Command, stdout: bytes) -> bytes:
    """The part of a command's stdout that no seed changes.

    For ``sieve`` that drops the two sampled columns V and V_over_X.
    """
    if not cmd.seeded:
        return stdout
    lines = stdout.decode().splitlines()
    return "\n".join(",".join(line.split(",")[:-2]) for line in lines).encode()


# -- seeded inputs --------------------------------------------------------


def _small_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def in_box(A: int, B: int, X: int) -> bool:
    """Membership of (A, B) in the minimal height-X box, by definition."""
    if abs(A) > X * X or abs(B) > X**3 or 4 * A**3 + 27 * B * B == 0:
        return False
    return not any(A % p**4 == 0 and B % p**6 == 0 for p in _small_primes(X))


def write_rank_csv(seed: int, path: Path, X: int = 3) -> dict[tuple[int, int], int]:
    """Ranks for about half of the X=3 box, header A,B,rank; returns what it wrote."""
    rng = random.Random(f"ranks-{seed}")
    ranks = {}
    for A in range(-X * X, X * X + 1):
        for B in range(-(X**3), X**3 + 1):
            if in_box(A, B, X) and rng.random() < 0.5:
                ranks[(A, B)] = rng.choices((0, 1, 2), weights=(9, 9, 2))[0]
    rows = "".join(f"{A},{B},{r}\n" for (A, B), r in ranks.items())
    path.write_text("A,B,rank\n" + rows)
    return ranks


def sample_curves(seed: int, X: int = SAMPLE_X, n: int = SAMPLE_SIZE) -> list[tuple[int, int]]:
    """n distinct curves drawn uniformly from the height-X box, sorted."""
    rng = random.Random(f"sample-{seed}")
    picked: set[tuple[int, int]] = set()
    while len(picked) < n:
        A = rng.randint(-X * X, X * X)
        B = rng.randint(-(X**3), X**3)
        if in_box(A, B, X):
            picked.add((A, B))
    return sorted(picked)
