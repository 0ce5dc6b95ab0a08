"""Byte-identical CLI output on fixed invocations.

The digests were recorded before coefficients were stored as ``int`` where
integral; any change to arithmetic, canonical forms or serialization that
alters a single output byte fails here.
"""

import hashlib

import pytest

from qident import cli

GOLDEN = {
    "verify all --m-max 8": "8f37bf2d953b349410bab11fba1ab80909fd8dbd55e7407d21fa91832cd624ac",
    "verify qseries --seed 7": "286ef8fb08cebfa639133c9227f0a149b51908501a58f8d40a7a6b543a5aaf16",
    "partitions --n 6 --weights sp": "5db4fec3376fc5afbb7c6616c14a331e44c8f78989dde686a24428038b219584",
    "dist sample --family sp --q 2 --u 1/2 --max-size 6 --count 50 --seed 42": (
        "d2e5f084a142316e7231f48a153183fe97f82eb6fb1144ce1fcc1a72a7f10557"
    ),
}


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_golden_stdout(capsys, monkeypatch, invocation):
    monkeypatch.delenv("QIDENT_M_MAX", raising=False)
    code = cli.main(invocation.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[invocation]
