"""Golden CLI outputs: sha256 of stdout plus the exit code, pinned per command.

Each command runs in-process through ``cli.main``.  The digests were taken
before the identity checks were rewritten as contractions of the lowered
bracket tensor, and the last four ``normal-forms`` digests before the abelian
families were taken as slices of the index-2 generators; refactors must
reproduce the same bytes.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from gonil.cli import main

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
    out.append(["normal-forms", "--q", "2", "--m", "6", "--family", "2", "--u1", "1/2", "--v1", "3"])
    out += [
        ["normal-forms", "--q", "2", "--m", "7", "--family", "1"],
        ["normal-forms", "--q", "2", "--m", "7", "--family", "3"],
        ["normal-forms", "--q", "1", "--m", "6"],
        ["normal-forms", "--q", "2", "--m", "6"],
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
    "verify-paper": ("324e8e50800befe78acf34a91fa9586f117803d62134f2d3e011ea7d1ad6ccfa", 0),
    "normal-forms --q 2 --m 6 --family 2 --u1 1/2 --v1 3": ("307d700053d4e86d19947947ad4c7c3b01365c191cb5598fd7c564cbea3e9740", 0),
    "normal-forms --q 2 --m 7 --family 1": ("c92627deafe5f4a927c61ca673ac73836cb29925c980202403a2c5827197b677", 0),
    "normal-forms --q 2 --m 7 --family 3": ("9fe9f86a490928104682f1420115a53f911fe671ba9d116c2e59dd17c76ca046", 0),
    "normal-forms --q 1 --m 6": ("ad20ba20ca5bd8d6f7c280308368c9c22d1d93a4ac8fdbb91c60c5ade719ec30", 0),
    "normal-forms --q 2 --m 6": ("215ff6627d6ddace8f5d63d5be5586fecfe9a2242ebbadd9ebf09e80e3be4ad6", 0),
}


def run_command(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_output(argv):
    assert run_command(argv) == GOLDEN[" ".join(argv)]
