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
        "7afd6067cf931323b431daacbc89cd8c83104c300987ddf36851c7e233a6c4ad",
    ("term", "fib-matrix", "5/3,1/2"):
        "485ac7666014b4b11649fa187a82cb0f3dd20430ea8a5055acc69272e58b20b8",
    ("term", "fib-matrix", "-1,2"):
        "ab5483594c56c8b06aa22a907c196eb5c834eac5dfd474b3a132fe336497c87c",
    ("term", "fib-matrix", "2,-2"):
        "6c17be6a48561dec308966c63e23c3a905461093ad803426947441c64ebb1518",
    ("term", "lucas-matrix", "1,35"):
        "efdcc3931e97d8c1e99e507b8064b782f189627fe2d2f4321f40781ce4ccbaea",
    ("term", "lucas-matrix", "5/3,1/2"):
        "289586eb77e034c25df4b98172757c570086cbd381acb4f3d0441d7029a75ca9",
    ("term", "lucas-matrix", "-1,2"):
        "d90e32e7dd75f79435acdd9563af93d65a2a4ca2111aa650e7f617400545edba",
    ("term", "lucas-matrix", "2,-2"):
        "475e955525cd5325d5e080b406451c66d02c34c1fa9635eeca1f18c596b6a497",
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
        "4ef6dff089df3fa31e324312000d00850ddb4babb7353a0786bf9246656c515e",
    ("table", "fib-matrix", "5/3,1/2"):
        "9a7a6cbe36284dee5a0cadb2cc2e9ffa9e4883311de85a0d1d54d9bf1ea59d50",
    ("table", "fib-matrix", "-1,2"):
        "aab25742d1cdbc8cb07053efa0baebcd8a4be740bfb16374c6fd53897bee463d",
    ("table", "fib-matrix", "2,-2"):
        "adb2cf434a2618d3d2699392b347795d1c224141bdeefeec61f881e74ceb57b8",
    ("table", "lucas-matrix", "1,35"):
        "7958bf3de2ff5b229231b55e56d95533a379a0d2c1c6f84f365635febf1098bb",
    ("table", "lucas-matrix", "5/3,1/2"):
        "dd86312673ad4689c19c4388c7edc0a0a6801d96e2c463cb7a8c83cffe5996c9",
    ("table", "lucas-matrix", "-1,2"):
        "8b80c5b25c5483399123a3c314e7fef6565d44ad79397915e15b5d57e81df8bd",
    ("table", "lucas-matrix", "2,-2"):
        "099a99604a24b90471fc84cf0736bc8f0ccf2bcbec0bb2466094717ccbbfbbd6",
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
