"""Golden outputs: traces, reports, CSV and audits stay byte-identical.

Each script below runs under every strategy and every isolation level
with the audit and the debug sweeps on.  The sha256 over the four
rendered outputs of all twelve runs is frozen; any change to what the
simulator prints, however small, changes the digest.

FAULT and FULL isolation check the same arguments and differ only in
the copy-in, so every script, errors included, gives both the same
trace.
"""

import hashlib

import pytest

import sasfork.system
from sasfork.workload import generate, print_script, run

STRATEGIES = ("full", "coa", "copa", "unsafe-cow")
ISOLATION = ("none", "fault", "full")

STALE = """
alloc a 4096
alloc b 4096
store_int b+0 31337
store_ref a+0 b+0
fork {
  load_ref a+0
  expect 5
  deref
  expect 31337
  store_int a+8 1
  load_ref a+0
  deref
  exit 0
}
load_ref a+0
deref
expect 31337
"""

FILES = """
layout heap=3
alloc buf 8192
alloc out 64
store_int buf+0 0x1122334455667788
store_int buf+4092 77
open log
write log buf+0 16
expect 16
write log buf+4088 16
read log out+0 24
expect 24
load_int out+16
fork {
  read log out+32 8
  load_int out+32
  write log out+0 8
  close log
  exit 4
}
read log out+8 64
load_int out+8
close log
open log
read log buf+4088 48
load_int buf+4092
"""

NESTED = """
layout heap=6
alloc a 8192
alloc b 4096
store_int b+0 7
store_ref a+0 b+0
open log
fork outer {
  load_ref a+0
  deref
  store_ref a+4096 a+16
  fork inner nowait {
    load_ref a+4096
    store_int b+8 9
    write log b+0 8
    yield
    exit 3
  }
  yield
  wait
  exit 2
}
fork nowait {
  store_ref b+16 a+0
  load_ref b+16
  yield
  exit 0
}
yield
store_int a+16 5
store_ref a+32 b+0
wait
expect 0
wait
"""

# Run with the PID table cut to four slots: three children plus the root.
EAGAIN = """
layout code=1 heap=1 stack=1
alloc a 64
fork nowait {
  exit 0
}
fork nowait {
  yield
  exit 1
}
fork nowait {
  exit 2
}
fork nowait {
  exit 3
}
expect EAGAIN
fork {
  exit 4
}
wait
wait
fork {
  store_int a+0 5
  exit 5
}
wait
wait
"""

MISC = """
alloc a 64
store_int a+0 16
load_int a+0
expect 0x10
open f
close f
close f
fork {
  priv
  exit 0
}
expect 0x10
load_int a+8
open f
write f a+0 128
expect EFAULT
"""

GEN = print_script(generate(3, 0.25, 0.5, 5))

GOLDEN = {
    "stale": (
        STALE,
        "7998bef53c4d5429f80d9b5508b8cb43a9baed9d73da8aae8b89e78067b5e2ae",
    ),
    "files": (
        FILES,
        "6417a3432f62e62a3951d30025eb27f176b52e7c71a4a578fb7b684a0daa26d0",
    ),
    "nested": (
        NESTED,
        "8da288fb06a07762b7d2aad71f255b62ce2483a6a583815641abc7e9f60b5b48",
    ),
    "eagain": (
        EAGAIN,
        "91b2b600ff271a46853314fea406799970029520384da8c3bc24c6256f8105f5",
    ),
    "misc": (
        MISC,
        "c10159ab97efe8f3509a84b3d1cb0230cadf0f2c4cdbcb80fee05ef31648e5b6",
    ),
    "gen": (
        GEN,
        "0b832e4b83aa2f97f199f1bd9ad8ed5b28a9a9710a3f2290be3aba8e6b350a26",
    ),
}


def digest(text):
    h = hashlib.sha256()
    for strategy in STRATEGIES:
        for isolation in ISOLATION:
            result = run(text, strategy, isolation, debug=True, audit=True)
            for part in (
                result.trace.to_text(),
                result.report.to_text(),
                result.report.to_csv(),
                result.audit.to_text(),
            ):
                h.update(part.encode())
                h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_frozen_digest(name, monkeypatch):
    text, frozen = GOLDEN[name]
    if name == "eagain":
        monkeypatch.setattr(sasfork.system, "PID_SLOTS", 4)
    assert digest(text) == frozen


#: A seeded slice of generated scripts beside the golden ones.
GEN_SLICE = {
    f"gen-{seed}": print_script(generate(1 + seed % 4, (seed % 5) / 4, (seed % 3) / 2, seed))
    for seed in range(6)
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", [*sorted(GOLDEN), *GEN_SLICE])
def test_fault_and_full_isolation_give_the_same_trace(name, strategy, monkeypatch):
    text = GOLDEN[name][0] if name in GOLDEN else GEN_SLICE[name]
    if name == "eagain":
        monkeypatch.setattr(sasfork.system, "PID_SLOTS", 4)
    fault = run(text, strategy, "fault").trace
    full = run(text, strategy, "full").trace
    assert full.value_hash() == fault.value_hash(), full.to_text()
