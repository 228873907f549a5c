"""The bytes the predict command prints, pinned by sha256.

No benchmark workload runs predict, so these digests are its byte-identity
check: JSON and CSV, with and without an expert value, under both tie
strategies, on a consistent table and on an inconsistent one (scored on
ground size F+1). Each expert value ties rewarded agents, and the seeds
make the random draw pick another agent than the lowest id. Decisions and
expert values are integers, so the weighted sums are exact and the bytes
hold on every supported Python version.
"""

import hashlib

import pytest

from mereovc.cli import main

TABLES = {
    # (CSV text, --omega, protocol flags)
    "consistent": (
        "a,b,c,dec\nx,y,z,4\nx,y,w,6\nx,q,z,6\np,y,z,4\np,q,w,9\np,q,r,2\n",
        "a=x,b=y,c=z",
        ["--epsilon", "1", "--delta", "3", "--seed", "7"],
    ),
    "inconsistent": (
        "a,b,dec\nx,y,3\nx,y,5\nx,q,5\np,q,7\np,y,1\nx,q,4\n",
        "a=x,b=y",
        ["--epsilon", "1/2", "--delta", "2", "--seed", "5"],
    ),
}

DIGESTS = {
    ("consistent", "json", None, "random"):
        "8286d6e4d1c3df323012e413ea68b2fe90230b1658c019ccaea63952e60a2cf0",
    ("consistent", "json", None, "lowest"):
        "0d140fc2183903bec4537079494e0e80c97674d4cddcc4e709e2eaa8472b122e",
    ("consistent", "json", "5", "random"):
        "daa247edf63421c406c68806bcaf5a0cc0715ec95e04629b8ea46e055534a74c",
    ("consistent", "json", "5", "lowest"):
        "060e9cb1b5fda47d937db1750c877656afc29b60d11f97b9967787f104451a51",
    ("consistent", "csv", None, "random"):
        "2fae9a10f0980e597dc38b6139b3a07608bfcbb52f472affa53c6360eac5f37e",
    ("consistent", "csv", None, "lowest"):
        "2fae9a10f0980e597dc38b6139b3a07608bfcbb52f472affa53c6360eac5f37e",
    ("consistent", "csv", "5", "random"):
        "976f3fe4f9baa174289993a5d8b438ef7a431700ddc9053d5e0e9c171810db9e",
    ("consistent", "csv", "5", "lowest"):
        "976f3fe4f9baa174289993a5d8b438ef7a431700ddc9053d5e0e9c171810db9e",
    ("inconsistent", "json", None, "random"):
        "677335885aef6da31d592b1f52fc2ee42f1654a8592f9d71ea9cf928f53ad6a6",
    ("inconsistent", "json", None, "lowest"):
        "ce276d95a3ecb78f21f932c2addfd2e84190b37423f34b32f9adf2114a6250e8",
    ("inconsistent", "json", "5", "random"):
        "cc06b78991755e07fedb8118c65403c3d35c34a43ef9dd819769f78dca16412e",
    ("inconsistent", "json", "5", "lowest"):
        "6ec7ba058117d1df6bea16cee537e75e830afef98e83012ccaccc9b18749346b",
    ("inconsistent", "csv", None, "random"):
        "970c0d0f5df199f45109ee3102fc25408b416220405ac4a2a01bdfd0c98153c4",
    ("inconsistent", "csv", None, "lowest"):
        "970c0d0f5df199f45109ee3102fc25408b416220405ac4a2a01bdfd0c98153c4",
    ("inconsistent", "csv", "5", "random"):
        "7060c59f37d0f019b2e35e561db7de311e2b7bf2322d3bd52cd0211f15bf4019",
    ("inconsistent", "csv", "5", "lowest"):
        "7060c59f37d0f019b2e35e561db7de311e2b7bf2322d3bd52cd0211f15bf4019",
}


@pytest.mark.parametrize(
    "table, output, expert, tie",
    list(DIGESTS),
    ids=[f"{t}-{o}-{'expert' if e else 'unscored'}-{tie}" for t, o, e, tie in DIGESTS],
)
def test_predict_prints_the_pinned_bytes(capsys, tmp_path, table, output, expert, tie):
    text, omega, flags = TABLES[table]
    path = tmp_path / f"{table}.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["predict", str(path), "--omega", omega, *flags, "--tie", tie, "--output", output]
    if expert is not None:
        argv += ["--expert", expert]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    got = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert got == DIGESTS[table, output, expert, tie]
