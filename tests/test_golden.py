"""Golden CLI outputs: sha256 of stdout plus the exit code, pinned per command.

Each command runs in-process through ``cli.main``.  The digests were taken
before the identity checks were rewritten as contractions of the lowered
bracket tensor, the ``normal-forms`` digests from ``--m 7 --family 1`` to
``--q 2 --m 6`` before the abelian families were taken as slices of the
index-2 generators, the two at ``--m 16`` before the abelian check formed
commutators over nonzero entries, and the ``check``, ``catalog``,
``reduce --output`` and ``extend`` digests before the derivation and Jacobi
checks read the derivation rows off the bracket table, and the two
``--bound 1`` audits before samples were drawn with ``randrange``, and the three
200-sample ``--seed 1`` audits before each sample was solved by
back-substitution in place of a reduced echelon form; refactors must
reproduce the same bytes.  Commands that write a file also pin the file's
bytes.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from gonil.catalog import EXAMPLE_NAMES, de5_data
from gonil.cli import main
from gonil.double_ext import extend2
from gonil.io import extension_data_to_dict, save_algebra

_DIMS = {"paper_2_3": 12, "abelian_n": 4, "heis3": 3, "filiform4": 4, "de5": 5, "de7_lorentz": 7}


def _commands():
    out = []
    for name, dim in _DIMS.items():
        spec = f"catalog:{name}"
        vector = ",".join(str(i + 1) for i in range(dim))
        out += [
            ["invariants", spec],
            ["isotropy", spec],
            ["go", spec, "--samples", "20", "--seed", "1"],
            ["go-at", spec, "--vector", vector],
            ["linear-go", spec],
            ["necessary", spec],
        ]
    out += [["reduce", "catalog:de5"], ["reduce", "catalog:de7_lorentz"], ["verify-paper"]]
    # Bound 1 draws many zero entries, and on heis3 some all-zero vectors, which are redrawn.
    out += [["go", f"catalog:{name}", "--samples", "200", "--seed", "3", "--bound", "1"] for name in ("heis3", "de7_lorentz")]
    # 200 samples reach solves that 20 do not: a back-substitution fault can leave every 20-sample digest unchanged.
    out += [["go", f"catalog:{name}", "--samples", "200", "--seed", "1"] for name in ("paper_2_3", "de7_lorentz")]
    out.append(["go", "catalog:filiform4", "--samples", "200", "--seed", "1", "--bound", "5"])
    out.append(["normal-forms", "--q", "2", "--m", "6", "--family", "2", "--u1", "1/2", "--v1", "3"])
    out += [
        ["normal-forms", "--q", "2", "--m", "7", "--family", "1"],
        ["normal-forms", "--q", "2", "--m", "7", "--family", "3"],
        ["normal-forms", "--q", "1", "--m", "6"],
        ["normal-forms", "--q", "2", "--m", "6"],
        ["normal-forms", "--q", "2", "--m", "16", "--family", "1"],
        ["normal-forms", "--q", "2", "--m", "16", "--family", "3"],
    ]
    return out


COMMANDS = _commands()

GOLDEN = {
    "invariants catalog:paper_2_3": ("2a296e4fa0c2110a9cf865017f310582a4d98e5d79b6901ccf058ee1016bb949", 0),
    "isotropy catalog:paper_2_3": ("f831acff0d2ab95fa4295fa6483176f63c1471139ade091d9fa26b2a7fdd78e4", 0),
    "go catalog:paper_2_3 --samples 20 --seed 1": ("517caddaa2a2bb2567e9626cbb7876c72d796a7be2babf6a9cbd35c95158d141", 0),
    "go-at catalog:paper_2_3 --vector 1,2,3,4,5,6,7,8,9,10,11,12": ("35228eee665370e84daffa56c5ddc1a384acfe9bfade076e1d428c32068004ca", 0),
    "linear-go catalog:paper_2_3": ("1e9f110bd4e41df05fd22903fa6e2cf59e442d6cb411ba3b508f8c1a016627b0", 0),
    "necessary catalog:paper_2_3": ("e74129356df99d9b1e9ae32af6d7f6c371b83f8753f881ecdd0e152b78db7784", 0),
    "invariants catalog:abelian_n": ("ec44ef35cb2b837aa1a932658d8f64cc997e15f1b21140f489faf29bf262ccb9", 0),
    "isotropy catalog:abelian_n": ("bc2ac200765cad0f9337e6a42a1612d2cf352eae574b0431384b19c2f435f114", 0),
    "go catalog:abelian_n --samples 20 --seed 1": ("01f190ef305be6676acf3aa6e6982d84381d7278f9bb8a9196786c5e873721ef", 0),
    "go-at catalog:abelian_n --vector 1,2,3,4": ("da2f9965c8ad84e2872503da3141f9ec68c389de548d6426ddbba1a0e8e13b0f", 0),
    "linear-go catalog:abelian_n": ("a49d4b4c16f2f0e1baaa5dda0e412183ef05b8d57e571849a6348b3a3488924a", 0),
    "necessary catalog:abelian_n": ("e74129356df99d9b1e9ae32af6d7f6c371b83f8753f881ecdd0e152b78db7784", 0),
    "invariants catalog:heis3": ("51349b81b72296e47ff7e8650ab38dd3af66d30c1cc08d9a63d094ded55c3943", 0),
    "isotropy catalog:heis3": ("4f60282c83ef4530a8d0e806d765d871e804028b0179880a830a467cc94f66c5", 0),
    "go catalog:heis3 --samples 20 --seed 1": ("dd1528425f39069dc0f907fc4b6e5d6f54150fa72ed40ac6615c86da09b25c9c", 0),
    "go-at catalog:heis3 --vector 1,2,3": ("67a87ad3351072ebb8b0a9d99f83df26728f3d271c8c526c754c9106bc887e6e", 0),
    "linear-go catalog:heis3": ("f1c379fd35e07231d762a2db1f861750a7856d9d56aef2f3c64410c6ca4ce828", 0),
    "necessary catalog:heis3": ("e74129356df99d9b1e9ae32af6d7f6c371b83f8753f881ecdd0e152b78db7784", 0),
    "invariants catalog:filiform4": ("f83189fbad9d46ccd2ebb74d5417d649b0083b9a7179759b72fef50b6ecacef0", 0),
    "isotropy catalog:filiform4": ("f331a5e9675a958c1aece0965edd484da06cf490433a9ba09707152379e7ccb6", 0),
    "go catalog:filiform4 --samples 20 --seed 1": ("d10b4606b792d1b3d9b2b83497987dc5ad543267dac036ad5f009ed05232bdb4", 1),
    "go-at catalog:filiform4 --vector 1,2,3,4": ("33c43a031a7ba23570a7fd3b35f5509068df8d3e123acf46367c67e781b1816f", 1),
    "linear-go catalog:filiform4": ("3251702bdfed42b45babf441aad9875c34bbe9da22765763e5af5483c4523300", 1),
    "necessary catalog:filiform4": ("96c8cd74ad4ad7c9646e2a80a3b8d78ffed1cc30f42d8fb7421f3fd4d0c27f4d", 1),
    "invariants catalog:de5": ("c0464d001d015b32245315a31a46c79ada7531ac974d866eccc4a16a644be0b6", 0),
    "isotropy catalog:de5": ("cd6d9d1b664326d0fe49fa6ed0e64b8d9b27ff1fbeb6ac2e66210e4fd91295b8", 0),
    "go catalog:de5 --samples 20 --seed 1": ("5f8ffb40406dbec8682b11cc3978a65e2912767e0161f24fffc02e7b6fe88049", 0),
    "go-at catalog:de5 --vector 1,2,3,4,5": ("b3756fc6d787a159830e0553588e9d1293f7b560487959ea06afac2665d8539b", 0),
    "linear-go catalog:de5": ("18c485fa9452261068d54a5cc44f796aecfbcc1ad96ce766ef1f5d9a74489ed1", 0),
    "necessary catalog:de5": ("f4c6034d9e88df45016a4371a1f2329c8d5a465652fd6fd82e1d7bbf2aa6df7a", 0),
    "invariants catalog:de7_lorentz": ("57dbdeac5c1561046aa24221ab872fe8aa140aa3f6c7abe51d47c7d0dc285134", 0),
    "isotropy catalog:de7_lorentz": ("265b8326f0a61619a6247376fa4e55649f2428075801c3d6b7ed75cbe71c8fba", 0),
    "go catalog:de7_lorentz --samples 20 --seed 1": ("4e19564f0ea7fde07adbd1edfddfb6fea50337f8cf78880994e18ffebc2f7022", 0),
    "go-at catalog:de7_lorentz --vector 1,2,3,4,5,6,7": ("f8e6f20d944cc2015c3d76cf5bc7179712ab10bb162414de305fed416d16ecb1", 0),
    "linear-go catalog:de7_lorentz": ("85e18517a691611f70044f65410cef7968778328410240e89465813e280c0479", 0),
    "necessary catalog:de7_lorentz": ("f4c6034d9e88df45016a4371a1f2329c8d5a465652fd6fd82e1d7bbf2aa6df7a", 0),
    "reduce catalog:de5": ("5c4a8fb565eb5192e91b80f7979cf6af95885e9253a47a8a337359899c43f914", 0),
    "reduce catalog:de7_lorentz": ("e84c5b47364df4bc969e763748aa79b965658827bc23ec9cb4b4f06248630a75", 0),
    "go catalog:heis3 --samples 200 --seed 3 --bound 1": ("195a4f0325de6aa82de1d5d0a537987993b851c90bade62e3220b1a30237f2d2", 0),
    "go catalog:de7_lorentz --samples 200 --seed 3 --bound 1": ("4b5ca7c528e257f8096804aa7b945116a7bbbc6dc64189c3e6ebf539e5648a87", 0),
    "go catalog:paper_2_3 --samples 200 --seed 1": ("77aff61cb2204d963f4d059c9a79b8ed1bb815fe039bcc230cf831811d7a30a5", 0),
    "go catalog:de7_lorentz --samples 200 --seed 1": ("a10fc0763f2504c16a71a3856a54eb694762b59282fe3a72799163fe5a15e52a", 0),
    "go catalog:filiform4 --samples 200 --seed 1 --bound 5": ("ae251c90ee3f2ef2d44856cdb6444aa931d252e7a75f497d7e0a329f2a9c6268", 1),
    "verify-paper": ("324e8e50800befe78acf34a91fa9586f117803d62134f2d3e011ea7d1ad6ccfa", 0),
    "normal-forms --q 2 --m 6 --family 2 --u1 1/2 --v1 3": ("307d700053d4e86d19947947ad4c7c3b01365c191cb5598fd7c564cbea3e9740", 0),
    "normal-forms --q 2 --m 7 --family 1": ("c92627deafe5f4a927c61ca673ac73836cb29925c980202403a2c5827197b677", 0),
    "normal-forms --q 2 --m 7 --family 3": ("9fe9f86a490928104682f1420115a53f911fe671ba9d116c2e59dd17c76ca046", 0),
    "normal-forms --q 1 --m 6": ("ad20ba20ca5bd8d6f7c280308368c9c22d1d93a4ac8fdbb91c60c5ade719ec30", 0),
    "normal-forms --q 2 --m 6": ("215ff6627d6ddace8f5d63d5be5586fecfe9a2242ebbadd9ebf09e80e3be4ad6", 0),
    "normal-forms --q 2 --m 16 --family 1": ("282756280774391df07d774ad08b0002fa7e4813f3c943e68b2be0f09fa5efe2", 0),
    "normal-forms --q 2 --m 16 --family 3": ("033244522457b12fbdd8312bf244f57fbe8d52fa3369ab9e10904747a3ec39d4", 0),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv, tmp=None):
    """Digest of stdout (with the temporary directory written as ``<tmp>``) and the exit code."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    if tmp is not None:
        out = out.replace(str(tmp), "<tmp>")
    return _sha(out.encode()), code


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_output(argv):
    assert run_command(argv) == GOLDEN[" ".join(argv)]


# ``check catalog:NAME``: one digest for every catalog entry.
GOLDEN_CHECK = {
    "paper_2_3": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
    "abelian_n": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
    "heis3": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
    "filiform4": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
    "de5": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
    "de7_lorentz": ("565d34d3300696afd5a74eba4bb3b0806c53d2920406324a682ca642f294545e", 0),
}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_golden_check(name):
    assert run_command(["check", f"catalog:{name}"]) == GOLDEN_CHECK[name]


# ``catalog NAME --output FILE``: the stdout digest, then the digest of the file's bytes.
GOLDEN_CATALOG_FILES = {
    "paper_2_3": (
        "50451d166ff924d113e37a09b3514cfdbab70f81852bc66eca729e8b9ef13222",
        0,
        "1882b92bef6fdfb952634da2fdb9028d3b313bf18ea5d6315f0f3297c461981a",
    ),
    "abelian_n": (
        "f82863046b457249a5cc91931f2d750eb1374244f6feda3bfb5c0ff79e230765",
        0,
        "98454406a8b26e77a8eeb920e7a9959c6187c58579a3942ae5551785bb2bd164",
    ),
    "heis3": (
        "4f0610ff44326c70df3431179a04ced8766b34635cb489368c13f4349dd29834",
        0,
        "33e57a8d52fdbdb76d72f2bfabfa9fd3f9fb287498f0a88cec69d7f6cf069105",
    ),
    "filiform4": (
        "5ff49373d2a55f2c1df7db7927372735c3531c72b1b88de4c15191d2a6700a26",
        0,
        "a75a706c27c1ac2a8dec288cbe8c5887cae2e69d85a3ce39cab893331b3895e4",
    ),
    "de5": (
        "1550d299bd7e25222b911e2719544d89564f69265a4019c073cde3ea5282da9a",
        0,
        "b1c65a7dc468092b92b4eea84e72d9f094a5fa57ecfd526c8ead5a60781327fc",
    ),
    "de7_lorentz": (
        "660eb93e7798bda4bbd9d77b4d91faea35ae6dddec2f42b838d6dcc63fc0942d",
        0,
        "cdf31976800e961b06f9babcecee6a6079282464c4ce36605f23a2e54ad7d555",
    ),
}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_golden_catalog_file(name, tmp_path):
    path = tmp_path / f"{name}.json"
    digest, code = run_command(["catalog", name, "--output", str(path)], tmp_path)
    assert (digest, code, _sha(path.read_bytes())) == GOLDEN_CATALOG_FILES[name]


# ``reduce SPEC --output FILE``: the stdout digest, then the digest of the quotient file.
GOLDEN_REDUCE_FILES = {
    "de5": (
        "2ad1319766113086209a215efab88ff4981e68f33fc8c8fb9172cc9f5985b0b8",
        0,
        "d55d4cf94c202ebe2e4e1efaf9d66c24f7e2483d416bbf9f2bcc12b457fd9a90",
    ),
    "de7_lorentz": (
        "205d737b50880dbb63188f5e13aa6c01ce6288919ee607998340c750f81809da",
        0,
        "6bd644eb8f8e20735c17aec7487fb332d109a9f0e152c05dc86bdc787278e0dd",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REDUCE_FILES))
def test_golden_reduce_file(name, tmp_path):
    path = tmp_path / "quotient.json"
    digest, code = run_command(["reduce", f"catalog:{name}", "--output", str(path)], tmp_path)
    assert (digest, code, _sha(path.read_bytes())) == GOLDEN_REDUCE_FILES[name]


# ``extend`` of the de5 base (Euclidean R^3) by the de5 data, both written by the
# test: the digest of stdout without and with ``--output``, and of the written file.
GOLDEN_EXTEND = (
    "2d6a7e34e281dd2c33002bfebb20db38b07860eb1ae2251e76e1893883c0ee90",
    "f1377f7491ed29c22588b254b013b9281d2fd0cf05aad36b3f74b788098a1b59",
    0,
    "b1c65a7dc468092b92b4eea84e72d9f094a5fa57ecfd526c8ead5a60781327fc",
)


def test_golden_extend_de5(tmp_path):
    base, data = de5_data()
    save_algebra(tmp_path / "base.json", base)
    (tmp_path / "data.json").write_text(json.dumps(extension_data_to_dict(data)))
    argv = ["extend", str(tmp_path / "base.json"), "--data", str(tmp_path / "data.json")]
    plain, code_plain = run_command(argv, tmp_path)
    written, code = run_command(argv + ["--output", str(tmp_path / "extended.json")], tmp_path)
    assert code_plain == code
    assert (plain, written, code, _sha((tmp_path / "extended.json").read_bytes())) == GOLDEN_EXTEND


# ``reduce FILE --output FILE`` on the extension of each rung of the benchmark's
# reduce_ladder (seed 11), degeneracy 1 and the Engel split: the stdout digest,
# then the digest of the quotient file.  Taken before elimination rows were built
# in integers at their source.
GOLDEN_LADDER_REDUCE = {
    "deg1-euclid-d5": (
        "13ecf571c8f66c3a13c011adda66b9d0071ab9f429e66dfbdc025fe9e3b8cdfe",
        0,
        "91512683ebd2c356abaa1b9d450aaf6c87e88afb6b3e5b6753b072a06e03b044",
    ),
    "deg1-lorentz-d6": (
        "a46459ebb9bc97167f6c043453f3223a1e737209e9f34164949007560949d210",
        0,
        "8361b4e2652b6887199796c03bb39239140340aa675386deb41fa4bca32bd599",
    ),
    "deg1-euclid-d7": (
        "301eb2a323e2cfc92677a2cbdcb66b8112164d8a7fd5919907e9b554cc8d2498",
        0,
        "bcc9c1913eeaab6644b68fdf304e835d922787ccb76186163b03cb68338fc437",
    ),
    "engel-d7": (
        "4fd248d39b89ae8a3b7f6b0442fa65dc42a5e4239cb5fa37a36e8d9155ff2a5b",
        0,
        "65280c10ea3cb577a7c5326c1083fe0230711ae8271f3e69ef50d57a7084e631",
    ),
    "deg1-lorentz-d8": (
        "60e497cf783db7d693a0009a3dc6a3a989b22ccd12882ef01193d341083facff",
        0,
        "cf4c76f260b40c5571fcc8d85538ab6fd34ada5f87d41f3134b2261a1821e2a4",
    ),
    "engel-d8": (
        "bdb24e5a6d8a21a154102bd7a6c1d0fd337fe6f9b233465545205f3fc3b423b8",
        0,
        "d7861dca30d4267c02e02849b2f34862544c283de55de91a5462c5d1b84316ee",
    ),
    "deg1-euclid-d9": (
        "172945a37ee21f04582919f3c8cac834a1a3e7d2f26ad7398e6867e773496d51",
        0,
        "b158b7af1c48d59cb22fcb87b5e140d995f3755ec0814927c45e1691a50e0edc",
    ),
    "engel-d9": (
        "b886975eb01b8ad5f1abc1832967893387933b43ca838085c6d861ff736d9187",
        0,
        "cb4fb45b749ad63ed0651009b393bb24d4ab8135dee7e04f8d6aae4dc699304d",
    ),
    "engel-d10": (
        "2b0a77a753e56b5b7bdd68d4c2b0aa0e9ba56009eb560d3d9426c2af58a70e2a",
        0,
        "e578506ec5f54e21ad94168cf3f51133f91867c81cdcb8fa1b1c5d0e61d11ecd",
    ),
}


def test_golden_reduce_on_every_ladder_rung(tmp_path):
    from test_double_ext import ladder_rungs

    got = {}
    for label, base, data in ladder_rungs():
        save_algebra(tmp_path / f"{label}.json", extend2(base, data))
        path = tmp_path / f"{label}-q.json"
        digest, code = run_command(["reduce", str(tmp_path / f"{label}.json"), "--output", str(path)], tmp_path)
        got[label] = (digest, code, _sha(path.read_bytes()))
    assert got == GOLDEN_LADDER_REDUCE
