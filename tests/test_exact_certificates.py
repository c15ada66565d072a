"""`pack exact` JSON pinned byte for byte, with and without a trustworthy LP."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from polignac import oracle
from polignac.cli import render, run_command

# sha256 of the `pack exact --x x --format json` text: x <= 60 from the integer-program-only
# oracle, 61..132 from the oracle that asked only the LP and the integer program.
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
    61: "e6696c04228a40e0d95a7528f060a3b2020d54cca6c48a85f4bd6848c16e8749",
    62: "08deecee55f763230378b9bf2013ed5131fc2e2b7df87855de74ed9913c3d308",
    63: "7808317042d010502db5f7f2d4c235c59f794542bfea6ef531912ce5eccbdf73",
    64: "b3f2477f1a6a5137e5a813238182826ef618ce4e374611fe8b534e85b2f41e5e",
    65: "6d0893d5f91a6685df9d6ae5b234ff764e1d7e9b52f5066f018ed889e10f89a7",
    66: "ad2a77d519ce375a6fe40ebda6ee6fd59c194f00d289b14477e9cd124c613c53",
    67: "ba1e40c8bfe991789964012623aaf60de031a4dedb9d2b0188abe253e2c0d7f3",
    68: "d65690107fdeb275617072a1e795995d250ac2637e26625d79fdf60504d23fa3",
    69: "76377aaa92614de0ff6d132a15de3dee3ab395ec5def92d6eaf90031e0ce4bb7",
    70: "7a5ba0d794054ef0f3e4a32edddabcac83688ffb278a8688a435a90bc7e32e10",
    71: "f63639b5b842946cfcd2f50cac6fda72b9a4f9d34ff54c24127deedc561905f6",
    72: "95556a451941faa82567532a08e7cd0287b2c65ebf00a1eb484c2797ad4ce5e4",
    73: "bec0ea3ece256d95a1ce02f4bc95dcd475d2fdea8bf6f1b8137f70c8dcb72729",
    74: "2ecf413d378caf06f5ee03e9aca2c9f9f937e6a06b9132dddc9ce01db0e0542a",
    75: "43c98e90fe2fe6503ed515f0cb4be87c8ccf4e1c9698ece5d1f9d030118f4636",
    76: "aa0a85b5827d7c8de8a28a2498f731591c14517657aff4691782fd398789e8e4",
    77: "4fb4fdee96ec100c1744eaa46a483c497f47e428062820598fd118205c5ee05c",
    78: "5126c026ec4cbab4bb7c103c61cb33f651bb9760212bd4c0fef096b3874210bc",
    79: "803e3b3c611e9ef6ed670c76e68edbec41f68b3f871dc6c5a7e4a2a9902774eb",
    80: "d970afa79915701dd1913d849fe9efbca2d039f444e9ba84db712c4405135c3e",
    81: "2ef5e07b2c8b60d356ae49042aeca4f120ad4fc6db38d170fcaae78f31eedd49",
    82: "04d7b1fac7753bafd05654fbd94cfbe909cc728c49738abafc73e0f5b494dada",
    83: "6a097282b7cc84aa770aedc63bd3e3ccd038ee4a789a863f36bc2314fb463c19",
    84: "61535ad90bcb44c6da49b314392c5224d43dfa3d8660eed24f8d36e4fe569058",
    85: "7d2fcb3587b324e96ca84b9a8422f35a6585ed6ddece896fb53305720a5707f2",
    86: "d51fd696640981bb3e3bbaca9c89c3fa74559b9987667fe36f1a6c88e0f41fda",
    87: "82478710184b051cad85c92fb71c1d6c6d8fbb18dab818dd8e52d590e6d9ca2b",
    88: "daea34f80432f06dc556a84ebd13cb0f0d3990b4bfb9860eb5e18196c16ad2ab",
    89: "8f0acac932f88258a0eb0e7c92e7add2554b8fb4fb34c179cdd344273364d90c",
    90: "49b6a141d4c5bea12a3dd6d96cad2807f1882615b39515aec76279e2ce61647d",
    91: "a34a6a42d08517912c36cf8d14bbdbc4a6df1ec015ff335a5a43543a563a4fbe",
    92: "4761c662614c20acdac055bf9a60a376bebf0ff4fa190ef20fba6055c668cf69",
    93: "ba9897a03ac008d58ccc2c6836640e3900bb038fb48764e97514233f3dd6d8a5",
    94: "c843099d93583d67b5b9683179b36f66255b92d152b95ef883b5c9586c68b3cd",
    95: "119ea86060e4abec5a6fba92b50027bedf437dbfd962b8e91e915540fd4e813d",
    96: "99812f444c676ce29e972be86c0fa592bf8aaa5ee93d1c6d1ee91a9b13c68ecb",
    97: "279c73223e92d3b20985065a63b3e4b02f08ecda907ee7b9c6e71639fb31751e",
    98: "180832c73b05ba496c0e4e8b49b8f1d2662b0aa03c3decbe1ed469675d416817",
    99: "1b8e3b69588f027bcc89f5744fba8b532a9a12d2ccec3fa88e0e5a28235de925",
    100: "7ddc10cb6adff6e57dbeb78640aabd2f54e61ea38ca03b10b29f75ca877bfee6",
    101: "19f36745b0272b4bb7a3d880fbb9b0aa9a95f497c269730381c77879f00290f0",
    102: "52fcff21e17e678265e7ea6cdfabf2029c30172796c6dcf6715d3570c90161d8",
    103: "96f91c91a6d6f56d4d6aa077b271b73a7341f672f9dcf1226aa8b6dca15f8b7b",
    104: "eff81858148114645177f2a9b4420403a4e88b1d068782852bafa3f89d3bd424",
    105: "9042de61c5540b24353c8d1bffc209c3903b26c0cf737e714cff405dcd2996c4",
    106: "1b921e4945421ff90898624c7bd3623b18bfe30d788472e9077466e5ea979543",
    107: "fc12a96ae670303abcfb16a8054e958b36c3af43a3f0480c940e36ea48663cc1",
    108: "4529464819c5f15c1185036f9433ec50793fdccfd724768c83b392ee2aa994b4",
    109: "372f82a86db99fa76f36378cf4edb813eea7f6d16d73acb91146ff21433443c5",
    110: "b11e5c27881a36b3c31c92090d39fa3e7d55ead4770849d329e110a031413384",
    111: "fe3e395b20856064f56f5ddb09ba385cb2f2421fca2a0772b819c54a5ec37e88",
    112: "8417d983eb038c11cc91a3fb84b8f67de73616fe5d15e32585f45907db1967ae",
    113: "8c65bd9d1c6f31befa3209d8fd8129a8163119c6238e899d5f1e484d5d77f92b",
    114: "e206bad889c8dd6735d306f959892045870e58de171facd4886f0b9dd9359ce9",
    115: "74f18cf1b42d0fca5a035db4e7528d3939ce783d38d7a4730d845f6bb6eb4f73",
    116: "13392e5ec7072e181baa75264b2bc040865f80f2205757239c6c8e446aef98dc",
    117: "d3b91243dba623111753b798d9572c3e78e544127e5a6ed81d3c525203be2acf",
    118: "048ff33500243979cab542096727b9ca40bd607e034be328419d15e09c1da22c",
    119: "532204a85e9df96cb9b2ebf1880ab5bef696d49d717f95d812e90c38cf35375d",
    120: "69dc4075dfb2c985ba5fa56a65bdc82ee6d6a1f10cbc9345af9932abd5dcbe97",
    121: "5098aab6b71425e92a5b77531af6ddcc81de5fde828f4b591331f92b55c204f2",
    122: "1c99c9cbdaf3d210e605507648a41b902ffe997290bf7fd948ddb7de89da38cd",
    123: "e74fa33a1dbd7558f59dfbdc050e2646e7365a71f67006089c0d45187781df9d",
    124: "47a41b074c00527e003f2804a237f6a307c38ce50cb35f6fd692221588bbf121",
    125: "e58b4225f4f5f0076e7f710ca6b7393288006fa785e67e0e45f16b7276a79762",
    126: "b0e9ed1ff18079fdc30452e6190162c7342cadab5735a4cb921b0f52dfe5d84e",
    127: "fde8d1609c4d0e1c6e97c7be450063fd3c62598079aa396a1c8f39b1aaa3ef72",
    128: "7fa0a3df8e89b976363373173c7d81014355796d6dfcf8430ec905a66595a41f",
    129: "bb4673dff585d3d5683c60b35b8dbd35150ebe9e5271681ae9dba35ef5e10ed0",
    130: "096e46f1495b56d9ac0e5f51437fb510ccb405a98317e2e557037d719573cb1e",
    131: "a590cf49f85c4df5527879d07cffdf4af542534a2e272449fe53b73eb8e70935",
    132: "3197a40e69f147f09eac6b1ab47bc2a9c62d98583e02cdbdc2706caf14b75ae4",
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


@pytest.mark.parametrize("x", [36, 62, 72])
@pytest.mark.parametrize("bad", list(BAD_LPS))
def test_bad_lp_changes_no_certificate(monkeypatch, x, bad):
    # The LP relaxation is checked, not trusted.
    fake, calls = fake_linprog(**BAD_LPS[bad])
    monkeypatch.setattr(oracle, "linprog", fake)
    assert exact_json_sha256(x) == EXACT_JSON_SHA256[x]
    assert calls


@pytest.mark.parametrize("nodes, outcome", [(0, "gave up"), (10**4, "answered")])
def test_search_node_limit_changes_no_certificate(monkeypatch, nodes, outcome):
    # At 0 the search gives every question up to the LP and the integer
    # program; no question at x <= 72 takes it more than 1544 nodes, so at
    # 10**4 it answers each one itself. Either way the certificates stay.
    outcomes = []
    real_cover = oracle._cover

    def spy(*args):
        try:
            picked = real_cover(*args)
        except oracle._GaveUp:
            outcomes.append("gave up")
            raise
        outcomes.append("answered")
        return picked

    monkeypatch.setattr(oracle, "_cover", spy)
    monkeypatch.setattr(oracle, "COVER_NODES", nodes)
    assert {x: exact_json_sha256(x) for x in range(1, 73)} == {x: EXACT_JSON_SHA256[x] for x in range(1, 73)}
    assert set(outcomes) == {outcome}
