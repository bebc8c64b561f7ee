"""Pinned bytes of ``term``, ``table`` and ``series``.

Each case runs every kind, format and source (valid or not) of one command
at one parameter pair, and hashes the transcript: the arguments, the exit
code, stdout and stderr of every call. A change to any byte of any of them,
or to the order of rows, changes the digest.
"""

import contextlib
import hashlib
import io

import pytest

from biperiodic import cli

PAIRS = {"1,35": ("1", "35"), "5/3,1/2": ("5/3", "1/2"), "-1,2": ("-1", "2"),
         "2,-2": ("2", "-2")}  # ab = -4: no Binet route
KINDS = ("fib", "lucas", "fib-matrix", "lucas-matrix")
FORMATS = ("plain", "json", "csv")
SOURCES = (None, "rec", "closed", "binet", "all")


def _argvs(command, kind, a, b):
    params = [f"--a={a}", f"--b={b}"]
    if command == "series":
        return [["series", *params, "--order", order, "--format", fmt]
                for order in ("1", "6") for fmt in FORMATS]
    if command == "term":
        ranges = [["--n", n] for n in ("-3", "0", "1", "9")]
    else:  # one range across zero, one from zero
        ranges = [["--n=-4", "--n-max", "4"], ["--n", "0", "--n-max", "8"]]
    return [[command, "--kind", kind, *params, *span, "--format", fmt,
             *([] if source is None else ["--source", source])]
            for span in ranges for fmt in FORMATS for source in SOURCES]


def transcript_digest(command, kind, pair):
    text = io.StringIO()
    for argv in _argvs(command, kind, *PAIRS[pair]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text.write(f"{' '.join(argv)}\n{code}\n{out.getvalue()}--\n{err.getvalue()}==\n")
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


CASES = [(c, k, p) for c in ("term", "table") for k in KINDS for p in PAIRS]
CASES += [("series", None, p) for p in PAIRS]

DIGESTS = {
    ("term", "fib", "1,35"):
        "4824ee61eac56f3bb62feb65a2b74dddad8cb87a373855568a2fef6a7bdea83a",
    ("term", "fib", "5/3,1/2"):
        "0d4e8040a55bac9b49497c4dc56e3e4114deb5e8960ca48d39e5d213be836e4d",
    ("term", "fib", "-1,2"):
        "80a9f1f68bde6596bc8a92f3a3579fd18c06a5936300410a0dedbe75eaaf44ba",
    ("term", "fib", "2,-2"):
        "ec68dff48353d2a937544cbeb01c6c8218bcf1c3b18a9f89fef4d62c9735c2a3",
    ("term", "lucas", "1,35"):
        "f0dea6e34ec708d9010175b09bed19290b6c54a19f22f1c8c13862f03942edd9",
    ("term", "lucas", "5/3,1/2"):
        "bde850efda4d8b670870e2caf1e620057748ae2359d320f1920253e5ae33ef47",
    ("term", "lucas", "-1,2"):
        "c3c6c1eeaf3d7b62885bb61103e5a6cbf97b3d879a4093c9d095fc028e05e307",
    ("term", "lucas", "2,-2"):
        "c1b1aa97653fdc279d4bc8b63f6f58818a4167c4ff0d9f81833b9be51435a2b7",
    ("term", "fib-matrix", "1,35"):
        "2c4c43f1278ef4bfa5378fab7ef56e49e52ecc37c45faf2851296df5f79a71c5",
    ("term", "fib-matrix", "5/3,1/2"):
        "8dd2142dd58a4ebd80ffabfa4bbfb5313db8761c2d3fcf570826220b3fc88ac1",
    ("term", "fib-matrix", "-1,2"):
        "29f83afbd75cb32ff2b4608d9f0a6c2357cb406be79f7023b9a5525537e56be6",
    ("term", "fib-matrix", "2,-2"):
        "34327d7d00f3247767b237ffdcdc822d3cce6acf726afa2d987b5744ad56d7e0",
    ("term", "lucas-matrix", "1,35"):
        "6cd433013400eadb1eae7298c0ac7b30ae6376199411e2eb02cf49497a8ee455",
    ("term", "lucas-matrix", "5/3,1/2"):
        "74087a107168e6c4abbdae000a05a87bf349417f2162952064757bb9c0339869",
    ("term", "lucas-matrix", "-1,2"):
        "c69c2bf809395f5af9cad42a73d83adeefe86eedf2307a4bf09e5459e1c45df3",
    ("term", "lucas-matrix", "2,-2"):
        "669dcb1239fae3e0207187854b1ba076fbf94c35cabee0bc348ba4b5c1a6e7ff",
    ("table", "fib", "1,35"):
        "25c110a926a7d87be1c109bfbce93951b8530b120404441a2da491de6b49cd88",
    ("table", "fib", "5/3,1/2"):
        "a14114458f24cc3829cf313441154e9c9d90696df9eb5b63bfff76cb3c97fdd1",
    ("table", "fib", "-1,2"):
        "0a8aaca52557b6661d534260aa345b25b8d15e0eb574488d7754931c081c733c",
    ("table", "fib", "2,-2"):
        "ff419ed3096b7591dbf6f76ee37a0ea717362ecb2772117aa0cb969f3f4190ed",
    ("table", "lucas", "1,35"):
        "b3017062eedf7e1a0a82fa2c2f7848c4fde494445b41bac0a94c6c665220a453",
    ("table", "lucas", "5/3,1/2"):
        "550fdfab8e1ff33303453eaffbc9f0ca0c47836f91ff56b01e8437b773cad330",
    ("table", "lucas", "-1,2"):
        "6ab24097060c6858a9e85148806eb18c3eda22bd0e3faf03013d60ca6b85a1b5",
    ("table", "lucas", "2,-2"):
        "d4331b05d620cbd6608ec42b067934a36d9877b85979ae457e59c41139da6b4d",
    ("table", "fib-matrix", "1,35"):
        "5716c5774e4b2c9e232a85621b371afbd49f398b056368aac978d19be9edd2e6",
    ("table", "fib-matrix", "5/3,1/2"):
        "28714ec0cc312938f5fdf10a53b8beb8a119213efff1e04effc8ed9b08420bf1",
    ("table", "fib-matrix", "-1,2"):
        "25a7811cae9e650800e372845dbc500c28c136d9d9708c54a3564350e6337e1e",
    ("table", "fib-matrix", "2,-2"):
        "9a7c4f1dc349b5b1f12a257876fd7b49a0cceeb49b9de4000e8758654ee34080",
    ("table", "lucas-matrix", "1,35"):
        "4aef4a26b265c59228dd71eff817db8c659d8eb4bd8e79edfe3560b692f3ac13",
    ("table", "lucas-matrix", "5/3,1/2"):
        "57737502ce6b7d29addddfd4d6c8a8e03020d2550f0a30464f2eec40ba629aad",
    ("table", "lucas-matrix", "-1,2"):
        "8ee3731de9d52a0568e9b8cbba22dfc926b67bb1324bbe1c2b75d771daf4ec00",
    ("table", "lucas-matrix", "2,-2"):
        "bb0865a021eceb1b86324c0219fcf1a3a8ef480c35f14e6203ee01984b816e43",
    ("series", None, "1,35"):
        "7b29de3b6175f6f6124bb85044c5862bc2e22ea3b1ca1d8140fdddc8cb18932d",
    ("series", None, "5/3,1/2"):
        "543188eea95e198e1c8964fdf7fef7ebb6be4f8d36294a60fa8ab3f50431754d",
    ("series", None, "-1,2"):
        "93d0f67ecb43500f3533e89b273846c8d1c479af4a6d56660cf0375208a3c35b",
    ("series", None, "2,-2"):
        "766c8381e79ba88d90e45ccd3cbf06d8f85b87acfc70feb43eaae4c01df0726e",
}


@pytest.mark.parametrize("command, kind, pair", CASES,
                         ids=[f"{c}-{k}-{p}" if k else f"{c}-{p}" for c, k, p in CASES])
def test_output_bytes_are_pinned(command, kind, pair):
    assert transcript_digest(command, kind, pair) == DIGESTS[command, kind, pair]
