"""The CSV bytes of every command at fixed argv, pinned by their sha256.

Every CSV row is written by ``rates._csv_rows`` or, on the ``rates`` fast
path, ``rates._fixed_rows``; a change to either that moves one byte of these
outputs fails here.  The set covers what each writer path must keep: ragged
``simulate`` columns, negative and subnormal ``toy`` values, a censored
``table`` and one whose cap is past int64, both ``spectrum`` modes, and
``rates`` rows in exponent notation and across a 65,536-term window.
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


@pytest.mark.parametrize("argv", GOLDEN)
def test_csv_bytes_match_their_digest(capsys, tmp_path, argv):
    path = tmp_path / "out.csv"
    assert cli.main([*argv.split(), "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[argv]
