"""The CSV and JSON bytes of every command at fixed argv, pinned by their sha256.

Every CSV row is written by ``rates._csv_rows`` or, on the ``rates`` fast
path, ``rates._fixed_rows``; a change to either that moves one byte of these
outputs fails here.  The set covers what each writer path must keep: ragged
``simulate`` columns, negative and subnormal ``toy`` values, a censored
``table`` and one whose cap is past int64, both ``spectrum`` modes,
``rates`` rows in exponent notation, and 70,000 ``rates`` rows that cross the
17 edges of the recurrence's 4,096-term windows and each power of ten of
``k`` up to 10,000.

Every JSON byte is written by ``cli._json_chunks``; its set covers each kind
of value that writer meets: the float arrays of ``toy`` and ``simulate``, a
``null`` escape, the ``table`` cell records (censored, with a cap past int64,
and in sorted order from descending ``--n`` and ``--delta``), ``spectrum``
records across chunks and its one-block mode, and the plain dicts of
``rates`` and ``verify-tk``.
"""

import hashlib

import pytest

from saddlescape import cli

GOLDEN = {
    "toy --iters 2000": "1e3654833009e9baba77655bad4a9d34328a8ab69802c40e5ad9ffbe9815a16b",
    "toy --x0=-0.25,-1e-300 --iters 3000 --thin 7": "cbb4470647d6238ac5afe81917136f5a26eec9e6d23ad0b341b74eb63ce0c18b",
    "simulate --n 50 --p 3 --iters 3000 --eps-perturb 1e-3":
        "c524be46e205cf7408505dc3b44405c052ae49f74ad09bbcd0fb9cb6412d863f",
    "table --n 30 60 --delta 0.02 0.01 --trials 5 --iters 5":
        "10be56b0d64ad19c3730e26566067ce56fc17dacd7e8ea18f4ad9255c60d1001",
    "table --n 30 --delta 1e-300 --trials 3 --iters 100000000000000000000000":
        "393be89734bed5d364b72ecdd3a922d0a82a912d105c8a5082700b5e4d0f94d6",
    "spectrum --n 300 --p 7 --delta 0.01 --beta 0.9 --format csv":
        "483c3a12e6eb5177bc8a212a84c9683936c53536fdee06135d4a55349016fe0f",
    "spectrum --lambda=-0.5 --alpha 1 --beta 0.3 --format csv":
        "d525b27377b1c35c2885bb7997aba382f7545a9ea437d5e88ab4e92a0aadc69f",
    "rates --lambda=-1e-9 --alpha 0.99 --iters 5000 --format csv":
        "57b58ad8da4b8f486838db8668adb4871777830e2d682961ec997526cd51ec7d",
    "rates --lambda=-0.004 --alpha 0.99 --iters 70000 --format csv":
        "fd3735623f4cb00933f44e1bb432a4b76c043d193e03c4b691f03d917ea88a3b",
}
GOLDEN_JSON = {
    "toy --iters 5000 --json": "abbab3e505f777c1f4520c38fa9030cc55032ed75006f969362ab82fd33640db",
    "toy --x0 0.25,0 --iters 300 --thin 7 --json": "d66b40783baec815a3b951f911a1f230dbf342c739172d44534c2a050f0cbe76",
    "simulate --n 50 --p 3 --iters 3000 --eps-perturb 1e-3 --json":
        "6796ca8a926e0d766aca8e79fc421cabb1b0ba04a0723e050e862fb8927cfa76",
    "table --n 30 60 --delta 0.02 0.01 --trials 5 --iters 5 --json":
        "297f2cbffe52134500ca76c65b7a43d4aaad582386fc5c0ef635a8c07846dea4",
    "table --n 30 --delta 1e-300 --trials 3 --iters 100000000000000000000000 --json":
        "8f92eb8ea0b3259cbcbf3ef8bad6dbf7f170eb051629956b1423a1dccf9d8e36",
    "table --n 60 30 --delta 0.02 0.01 --trials 3 --iters 3000 --json":
        "8fd19fcd6df277942dc14a90ad91c53fc5c02cc347981b73efb09bee9a932e9f",
    "spectrum --n 4200 --p 7 --delta 0.01 --beta 0.9":
        "d3ebcea35c516fd2736aa8d893038422e0d0f687a38ba233cb5c8cadcee5007e",
    "spectrum --lambda=-0.5 --alpha 1 --beta 0.3": "f1f31e2abd701ca3e9f9ea545169755bafff4ff60db7c3eb73d0c5718dc56402",
    "rates --lambda=-0.004 --alpha 0.99 --gamma 0.01 --schedule toy --iters 3000":
        "7735996791eca79dff2359779b183473cf071c1b1f2999d6252884f6845e4af1",
    "verify-tk --K 5000": "8e5f4f1dbd8217114b4c0fbaf94d0bbfb381cf29a9873a80f2efa270a4b88c7a",
}


def output_digest(capsys, tmp_path, argv):
    path = tmp_path / "out"
    assert cli.main([*argv.split(), "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", GOLDEN)
def test_csv_bytes_match_their_digest(capsys, tmp_path, argv):
    assert output_digest(capsys, tmp_path, argv) == GOLDEN[argv]


@pytest.mark.parametrize("argv", GOLDEN_JSON)
def test_json_bytes_match_their_digest(capsys, tmp_path, argv):
    assert output_digest(capsys, tmp_path, argv) == GOLDEN_JSON[argv]
