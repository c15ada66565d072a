"""`pack exact` JSON pinned byte for byte, with and without a trustworthy LP."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from polignac import oracle
from polignac.cli import render, run_command

# sha256 of the `pack exact --x x --format json` text, from the integer-program-only oracle.
EXACT_JSON_SHA256 = {
    1: "a6b8dcd4705b61c2c3f332a36bba99ffac2fd518f6501f39c0832a056e7c2da1",
    2: "2ca314561ca53bba32223e83779136569e9949edd1be20e81774e4e59957b4f2",
    3: "7c3d1637fed59d198fd300ef5eb0afc94607688648a4b64b0d850a9734f12d4a",
    4: "f75ad249c19a412a4028888656e11c3f0f34efc83cb5d7490b95816c3df45ffb",
    5: "b7cb79661456106a1afad5e3fe20748385a0d0f40be19e60952858bff2904072",
    6: "dac0e3bc08abf0164fdd567a1e68c6038b0a4039b79861b1bdff2b490e159bb6",
    7: "3c4750311500c725136db7e9d38199141ba1803ea00017746173cc9050696443",
    8: "15aa58bdf5052f61eb036afd7b036e9dfa5e4edf19a8ca6da6f164313db0fc7c",
    9: "f81c075400e26bdf3d2e95500c40d3380fb86aa54351cb138ca21df626a974ca",
    10: "af8fed90d870b2240cccccc47db3ab12b8021652cfb6b04d6043398c87553b0d",
    11: "249785a6ec3b881cdb50893c08e1b9176950e5ea8a302677ea3f10cd60efaffa",
    12: "9414c3bdfb8fa018fee0974c8f521580a261c1d5359350b4f0debf51e7109320",
    13: "0addc4a1aace57b3cbe99b346970b3fc2d970915d8f2b9ebd745b902343f224c",
    14: "400d979c9a3361c032bc668cf8132393d93866ef658435f0f2e3d4370bcde671",
    15: "86aa480a8fb0fc8a876f3b290a50151fbb3279f9349f9f7c31656beff1727929",
    16: "1ba9dfc949e7ca8ba027a9146d2f8a602126c9d78182e129469d658423227ba8",
    17: "e8680d48249e20133cdb31ae46f976cc6c6e429616b3382ebcece18d1a8a08cc",
    18: "213eff2c0a7e6aa4cf17d14f60d41b18ea5c9c68420a6960af03452692dbc708",
    19: "d70e5fedf2a708832b37bdcc468d8329f5e612e42856a9aedeefab13487965d2",
    20: "abe08b2b11840fea60806fc0266391cbbf475c581089db7570a9db9ef5a9f092",
    21: "72eb64dbe1c6b8c91d3023f0163dfc5f6a8c7b096cd8d4dce62d7eb66f10dd87",
    22: "5ed3418beda5f0b99e91084c36114057249b53b38cf63d25e28caeb8c1714a15",
    23: "e2e21bc065dd5d51fa9287f87dfc0d091ca9e099a5fa1247def1393e7f4aec0f",
    24: "8f48728a86f7e6af113f13b6790d53a361e4bea9620ac55d594f901c540ac800",
    25: "68213e708be23abb7df2a7d709be972a3b7af5dd4d75a62c01f8ecf740ab6608",
    26: "041e724e535c7d7b81f5ec3e635242ba27dbe52f3840bfa1cba9861d7a78dfb5",
    27: "bf35929458ded73d5d4bce59fdf281a9459ccf39bdbb626f10d287f855b90c36",
    28: "f3348abd58666edc8e4ad6c8cee432592801b8a93384b1fbfbf05c7e5a708cef",
    29: "0039435a60f01c43a3d515988e2c2b71f9d0f4cc5bb90bb09cddb1aa14ef4dd7",
    30: "83f61868325584f1d665dce50e5a3125c4b0e8f88fcc21cffe1d90556f181d2d",
    31: "ed0ad58bdd5066b32a86a70cff6ff298279f4dc658e490de673a208031f56796",
    32: "7aca05997ef73af9dab536045a14026087ef12f804795f5e706678277995873d",
    33: "24c88e534b7e775fb64049d215c89fde21d447af27d7f33f0cb3c7c75ef2c66a",
    34: "fce3922bc60e7b863b831dc98332d5812386cb6c8306d14af16faab7a8df5240",
    35: "efea8a669462acac4c742d53ecd02c25df6c18ae15cc7c7990e0c5cc20fd708e",
    36: "5330cb591b59bcd8f9f26f0dc74f557a81365f9e275e0b9fe9a8ed5378ff63d1",
    37: "d9a9e44349ddb72a3ef97e277c74197617696bd151089ad51a1af0b37534c8a0",
    38: "f81f7e131afb13d3515660c78db74db1deb8f7aca9db95be844adef1e0481a36",
    39: "ba839552015877bf9b9e632f35e4026c01c0b9781dba2d743ec748a4ef5b2f08",
    40: "644c7f394dd703bccf385edeac6301749d0ce826a6114156a89a87b711274591",
    41: "c8174d8c48706322f4761aee91bc446a057beed7df23c7b56f46babc684e7b48",
    42: "2429a8a1e69118f07a2037d6957d117e671fdc56621be547fd9b09c768b3d331",
    43: "573e522ba5b6584acc4ea3ec50f56298121036518a5bd508abf74554b978fb68",
    44: "8498834428a660c38dde3ab6eb77e5282ada5466472a4103d9c9c8b6f8921e2d",
    45: "e7f12ae92f7758874dab5db6fbf9803aa1971b1d6e566a263c1a76ce179ef504",
    46: "4c49a7173a8af35167864680484fc321edfc34790dc5482ff269ec92799366db",
    47: "ed767c237c48b4ff6d13654ce224555573b7a24872eee21b520c95f2b6bbf5eb",
    48: "3958c719b9a48d450d91de23566308a8bdc2aeb9ab86d0f7158f4fbf9b441e30",
    49: "df4deaee13981dfc4589beace5e68c67f2994528f9908997cc2ebaaa1d7e5688",
    50: "48846a3b8b110ffec6a29c521f2e27bf9eba715339d4c9203a121066a1255967",
    51: "9d7d3dae6da3c676584f6f19844a8531582c3e773678042a152f32478767d124",
    52: "01d02eaec2f825f23fc86c1713d48bbfed3c5a1bdd9937e021c6c6e99742ab1b",
    53: "63a2d58e0f0b89fc968d111e66c2bea8e4f82f35457358ba7d915205f7a4a73d",
    54: "bcc7eef5337197af8d1e794adc347f1feffa4d20da57e289ab8f7b08b7662d0b",
    55: "f6b3188650c8815479a0ce899aeb233fee83c8a16fa30006ce6118fa6986a601",
    56: "902ecab1986c24b60d62decbb6eb9aad9444e3d24b2a14fc2ed98196bfa9c363",
    57: "f958997df136f3f6bafa0758e60dd8ce523d27dc9a3a0722c50ece0ab2d69998",
    58: "007e47a5bb6ac730303b951104daef75afbd5f1628931be52e4d7c0ce7a21860",
    59: "0972a97a3dbfebee48766edc7be83fdaaec81ca590b54b376ad80d0013099036",
    60: "fa3897c3307ae99a5416bd5ac9c44bb7e65397e3ab6960a86268faccf554a185",
}


def exact_json_sha256(x):
    result = run_command(["pack", "exact", "--x", str(x)])
    assert result.exit_code == 0, result.payload
    return hashlib.sha256(render(result, "json").encode()).hexdigest()


def test_pinned_certificates():
    assert {x: exact_json_sha256(x) for x in EXACT_JSON_SHA256} == EXACT_JSON_SHA256


def fake_linprog(marginals=None, vector=None, status=0):
    """A linprog stand-in claiming optimum 0, with the given duals and vector.

    ``marginals`` and ``vector`` map (values, candidates) to arrays.
    """
    calls = []

    def run(**kwargs):
        shape = (len(kwargs["b_ub"]), len(kwargs["c"]))
        calls.append(shape)
        return SimpleNamespace(
            status=status,
            fun=0.0,
            x=np.zeros(shape[1]) if vector is None else vector(*shape),
            ineqlin=SimpleNamespace(marginals=np.zeros(shape[0]) if marginals is None else marginals(*shape)),
        )

    return run, calls


BAD_LPS = {
    "zero marginals": {"marginals": lambda v, n: np.zeros(v)},
    "negative marginals": {"marginals": lambda v, n: -np.ones(v)},
    "huge negative marginals": {"marginals": lambda v, n: np.full(v, -1e300)},
    "huge positive marginals": {"marginals": lambda v, n: np.full(v, 1e300)},
    "non-finite marginals": {"marginals": lambda v, n: np.resize([np.nan, np.inf, -np.inf], v)},
    "fractional vector": {"vector": lambda v, n: np.full(n, 0.5)},
    "overlapping vector": {"vector": lambda v, n: np.ones(n)},
    "non-zero status": {"status": 2, "marginals": lambda v, n: np.full(v, -1e300)},
}


@pytest.mark.parametrize("x", [30, 36, 48])
@pytest.mark.parametrize("bad", list(BAD_LPS))
def test_bad_lp_changes_no_certificate(monkeypatch, x, bad):
    # The LP relaxation is checked, not trusted.
    fake, calls = fake_linprog(**BAD_LPS[bad])
    monkeypatch.setattr(oracle, "linprog", fake)
    assert exact_json_sha256(x) == EXACT_JSON_SHA256[x]
    assert calls
