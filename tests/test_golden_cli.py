"""Byte-identical CLI output on fixed invocations.

The first four digests were recorded before coefficients were stored as
``int`` where integral, the rest before the 2phi1 sums moved onto one
term-ratio engine and the checks onto one registry.  The ``FAILING``
digests, of a deliberately broken check, were recorded before the identity
chain moved onto the cleared-denominator kernel (``qident.cleared``), so
they pin the counterexample strings a failing check prints.  The six
``GOLDEN`` digests from ``verify qseries --seed 13`` to ``dist eval ...
--max-size 10`` and the ``SWEEP_FAILING`` ones were recorded while the
2phi1 sweeps still computed in Q(q), before they moved onto Fraction.  The
three ``--max-size 16`` dist digests and the ``SERIES_FAILING`` ones were
recorded while the series and the distribution weights still computed in
Q(q), before they moved onto the kernel.  The seven digests from ``verify
anz1 --m-max 8`` to ``verify normalization --order 19`` were recorded before
each displayed shape of the identity chain got one builder and before
``normalization_check`` summed the literal first columns.  The two 200000-draw
``dist sample`` digests, the benchmark's printable sample runs, were recorded
while the sampler still bisected a Fraction CDF, before it moved onto
integer thresholds.  The two ``--format text`` dist digests were recorded
while the text sampler printed one line per draw and ``dist eval`` added the
probabilities one at a time.  Any change to arithmetic, canonical forms or
serialization that alters a single output byte fails here.
"""

import hashlib

import pytest

from qident import cli, distributions, identities, qseries
from qident.rational import q_power

GOLDEN = {
    "verify all --m-max 8": "8f37bf2d953b349410bab11fba1ab80909fd8dbd55e7407d21fa91832cd624ac",
    "verify qseries --seed 7": "286ef8fb08cebfa639133c9227f0a149b51908501a58f8d40a7a6b543a5aaf16",
    "partitions --n 6 --weights sp": "5db4fec3376fc5afbb7c6616c14a331e44c8f78989dde686a24428038b219584",
    "dist sample --family sp --q 2 --u 1/2 --max-size 6 --count 50 --seed 42": (
        "d2e5f084a142316e7231f48a153183fe97f82eb6fb1144ce1fcc1a72a7f10557"
    ),
    "verify anz1 --m-max 4": (
        "c42ebaec37f6ed6176a169808373e2fefb2ac0da5519270c59ce1062f68a514c"
    ),
    "verify anz2 --m-max 4": (
        "3d1dcb7564a741261081514aeded203428c54d45c81bcf281a7c6da260e4b48c"
    ),
    "verify anz3 --m-max 4": (
        "cd9e1c40644180701fa05f47fe1473fceb054e2508f52bf13a71923cc1eab662"
    ),
    "verify eq4 --m-max 4": (
        "13caa3eefd1ea0170477b01fa26460085ee7ca3c2678a470ca1be6692d8cbe6d"
    ),
    "verify eq5 --m-max 4": (
        "824c8ad0b9db72836eec685d9fd0bf0ab941bd09016be673592adc7fa540b29e"
    ),
    "verify splits --m-max 4": (
        "3a8e69ab72d79474bcce652a1202281f7d8c438c3b724529c22cc76aabb4d1fd"
    ),
    "verify eq5 --m-max 4 --format text": (
        "9e81f907d81334096a4ed0809c0cfb4ef333ad492a33eef5e4ab1d48ec8fd9ae"
    ),
    "verify qseries --seed 11 --qseries-n-max 5 --tuples-per-n 10": (
        "3bc29ff1b758330b23c1e96ac58d92a5fd67d313699753f19ec6ae18db2ffa19"
    ),
    "verify marginals --k-max 2 --order 8": (
        "7aba6fa63ad915f71749ef5e6dc7ebe69dc5cf338eb43d86d0383053b3d14189"
    ),
    "verify normalization --order 8": (
        "11f33478d3ccdd0975e2719df65e043dea4d36870e3e56407e2392e360509f06"
    ),
    "dist eval --family o --q 6/5 --u 1/2 --max-size 6": (
        "63384ffc6623c8dadf007e71abe8e0178eadf49516fb9536a0208abda46c7098"
    ),
    "verify qseries --seed 13 --qseries-n-max 8 --tuples-per-n 40": (
        "6d57fd94fa64d6097cd92958447ac4b717dbf654841e5bc940f73e4c1dffb122"
    ),
    "verify qseries --seed 11 --format text": (
        "dbc86ff2acddff4cb3664b9947908c1e7411cb1c4a61185e570e1e126c5180aa"
    ),
    "verify marginals --k-max 4 --order 18": (
        "9fa8825b91243fe2007841bd9e2bf097ca0b3014e23f3db690e423d6a78f93c0"
    ),
    "verify normalization --order 18": (
        "260614762e9682a76445d6d15de28830d64ad4e98526cccb4fd25cecbefdd25c"
    ),
    "partitions --n 7 --weights o --format text": (
        "ee6c85a2812a3be1fed18f6a7ea57799d56ce1f2a942e76735bd3ede443ec7be"
    ),
    "dist eval --family o --q 6/5 --u 1/2 --max-size 10": (
        "e71765040285f63650cec41dfcf6b2ec57d01ebadd5d337d2a3c2f55fe0dfb2b"
    ),
    "dist eval --family o --q 6/5 --u 1/2 --max-size 16": (
        "5447161f641a3c48e59d093a60282b8a4da94d283894130780343e44a3d37b80"
    ),
    "dist eval --family sp --q 2 --u 1/2 --max-size 16": (
        "350d389ad6edeca0c6dcc0023447e390264c68fecff26c059d4392c49241a8e1"
    ),
    "dist sample --family o --q 6/5 --u 1/2 --max-size 16 --count 2000 --seed 13": (
        "3bbbaae73659e2913b0f623062332acb560950462123b2174fb483073f54ee3a"
    ),
    "verify anz1 --m-max 8": (
        "7a499029c450fcd5f76650371560e54c4859871b91a75a61b7ce496dd14cc399"
    ),
    "verify anz2 --m-max 8": (
        "2f5dbb85c988ab6fdfda820fdad663fa4d20626b68cc81234bb1a4ce527d678c"
    ),
    "verify anz3 --m-max 8": (
        "dba9a09cf19b7ceed832693ab1d0bc3618fc3bfaef61c4f60e4bc6a44d0d5873"
    ),
    "verify eq4 --m-max 8": (
        "03656b2577f4e59a31d896771d14d9da5b5a9a38bde97b3f96b46fe95241803a"
    ),
    "verify eq5 --m-max 8": (
        "fbb9e24c540195a674cb74547a8dd99139bd176bea3656ebddd3a16735ea931d"
    ),
    "verify splits --m-max 8": (
        "9b5a71923d1cabbf5f1c16d747eeae82708287130bbf1799a7f82339821e335e"
    ),
    "verify normalization --order 19": (
        "369ff910eb5a510ed68a128edb7ed804134f7b530790d323cb80e10a5c8bd0fa"
    ),
    "dist sample --family sp --q 2 --u 1/2 --max-size 16 --count 200000 --seed 13": (
        "8afefc3b8784b1f296aafbbc6a5f1e00f27fc58fc16d445c6e686ee7579eec36"
    ),
    "dist sample --family o --q 6/5 --u 1/2 --max-size 16 --count 200000 --seed 13": (
        "7eca928cf94bcee40aa5a066bcaa6e0bb748c93216e360d8a2d1e22dd7e18cdd"
    ),
    "dist sample --family sp --q 2 --u 1/2 --max-size 6 --count 50 --seed 42 --format text": (
        "9de5027002ca0c1eae740b19b717f865031e08b9d33e59e3c02a0f8ad406ab25"
    ),
    "dist eval --family o --q 6/5 --u 1/2 --max-size 6 --format text": (
        "3fa8fe45aaf5923d427bc3922d67347ffc737c4459a18b9b38f307366b134cfb"
    ),
}


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_golden_stdout(capsys, monkeypatch, invocation):
    monkeypatch.delenv("QIDENT_M_MAX", raising=False)
    code = cli.main(invocation.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[invocation]


#: Wrong right sides for ANZ1: lhs + 1 (as in tests/test_cli.py; the first
#: failure is at m = 0) and lhs + m q^{-m} (first failure at m = 1, where
#: both sides print as nonconstant rational functions).
BROKEN_RHS = {
    "plus-one": lambda m: identities.lhs_anz1(m) + 1,
    "plus-m-over-q^m": lambda m: identities.lhs_anz1(m) + m * q_power(-m),
}

FAILING = {
    ("plus-one", "json"): "806bcbee733112d409cc1f8f66203e039dd051c5197079bba192b797976aeb35",
    ("plus-one", "text"): "45a53908cbc015c58b7c1d437b34c33594b82e9d9ed30f4dcaeab64699918cfa",
    ("plus-m-over-q^m", "json"): (
        "ddf96247159cf270dcf0135a8aeb1957e5661afa7c3a17948f2f1b4b498ebc18"
    ),
    ("plus-m-over-q^m", "text"): (
        "6bba6dc9604ce7671dcb98d6fa9263a25cb9743a78efe458ccdedcd4a3834bfa"
    ),
}


@pytest.mark.parametrize("broken, fmt", sorted(FAILING))
def test_golden_failure_stdout(capsys, monkeypatch, broken, fmt):
    monkeypatch.setattr(identities, "rhs_anz1", BROKEN_RHS[broken])
    code = cli.main(["verify", "anz1", "--m-max", "2", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING[broken, fmt]


#: A 2phi1 sweep with one side broken: the direct sum plus n, so the qchu
#: and transform sweeps first fail at n = 1 and limit-transform passes.
SWEEP_FAILING = {
    "json": "c505d442073dc8c2bd6166559279df5a8be846ef62f5a4e2cd13039237af0da8",
    "text": "6dbd9cc121353685ee276badf5e3f5b1870b74802e0f8a84d7610a6c042d08bd",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_FAILING))
def test_golden_sweep_failure_stdout(capsys, monkeypatch, fmt):
    direct = qseries.two_phi_one
    monkeypatch.setattr(qseries, "two_phi_one", lambda spec: direct(spec) + spec.n)
    argv = "verify qseries --seed 11 --qseries-n-max 3 --tuples-per-n 5 --format"
    code = cli.main([*argv.split(), fmt])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_FAILING[fmt]


#: The normalization series with the k = 1 marginal classes counted twice:
#: the sp report first fails at u^2 (lhs = q/(q^2 - 1)), the o report at u.
SERIES_FAILING = {
    "json": "d3dcd8c1f6b130e771d7323a4d56525f79ecb9c61b7e80c5cb87159dccb33afb",
    "text": "626170729f31ee26859ea648a6c1f3f53628ce7616b4735ce0e638beb7aa89a0",
}


@pytest.mark.parametrize("fmt", sorted(SERIES_FAILING))
def test_golden_series_failure_stdout(capsys, monkeypatch, fmt):
    direct = distributions.marginal_series

    def doubled(family, parity, k, order):
        series = direct(family, parity, k, order)
        return series + series if k == 1 else series

    monkeypatch.setattr(distributions, "marginal_series", doubled)
    code = cli.main(["verify", "normalization", "--order", "4", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_FAILING[fmt]
