"""Golden pins: SHA-256 digests of CLI output files.

Every numerical path the CLI exposes is pinned bit for bit, so a refactor
or speed-up that changes any emitted number, label or layout fails here.
The digests were recorded from the reference implementation and must not
be edited to make a change pass.
"""

import hashlib

import pytest

from odesens.cli import main

SHORT = ["--t-end", "50", "--n-points", "501"]
EULER = [*SHORT, "--solver", "euler"]
RK23 = [*SHORT, "--solver", "rk23"]
HESS = ["--t-end", "2", "--n-points", "21"]

# case name -> (argv without --output, digest of the --output file)
GOLDEN = {
    "solve-euler": (["solve", *EULER],
        "40d7e4491420c0bf61c8944d58bbd2b9312db8ba884e8cdbcc6399a9d12f7294"),
    "solve-rk23": (["solve", *RK23],
        "5cac723cf3be721c783535f341d375baf9b110b72a0567c88f066c2cafea04be"),
    "solve-linear": (["solve", "--model", "linear", *EULER],
        "30338583aa1bc4b5bdbf3b01bf7eaca91ee460dca4a0374ce0b1d5f67645fab2"),
    "sens-analytic-euler": (["sens", "--jac", "analytic", *EULER],
        "e8c3da58664568ec8899e7ec3e64453a45084a1255b8fc288c30c2aeabb4c92a"),
    "sens-ad-euler": (["sens", "--jac", "ad", *EULER],
        "e8c3da58664568ec8899e7ec3e64453a45084a1255b8fc288c30c2aeabb4c92a"),
    "sens-analytic-rk23": (["sens", "--jac", "analytic", *RK23],
        "a3c746aabddb47ac96565f13d4324112bfe79f83e746fa6df02daac58c6a579f"),
    "sens-ad-rk23": (["sens", "--jac", "ad", *RK23],
        "a3c746aabddb47ac96565f13d4324112bfe79f83e746fa6df02daac58c6a579f"),
    "sens-linear": (["sens", "--model", "linear", "--jac", "analytic", *EULER],
        "9d9587934d4cd2dfe54512e3b7ca6ce1e8c3a07c6b762237fdbb085cf982f4d5"),
    "gradient-rm": (["gradient", "--mode", "rm", *EULER],
        "a70d5ffc38bc3021cc80870e53f629215d47223ef48c4861aac51964c0ac2d67"),
    "gradient-fm": (["gradient", "--mode", "fm", *EULER],
        "a70d5ffc38bc3021cc80870e53f629215d47223ef48c4861aac51964c0ac2d67"),
    "gradient-fd": (["gradient", "--mode", "fd", *EULER],
        "c520680f8b5a9d79d191e9c2d6ad2d7e313c06f20112ddba40f60b509fbd911f"),
    "gradient-cs": (["gradient", "--mode", "cs", *EULER],
        "8135c65f10a9d61236e90ac29a075d013919667902cff4bbaf9a20253554b95a"),
    "gradient-linear-rm": (["gradient", "--model", "linear", "--mode", "rm", *EULER],
        "a9ea87a1b61f529607d3be4a7f0aa79f68b3223b1c866d97576e24698e137555"),
    "gradient-linear-fm": (["gradient", "--model", "linear", "--mode", "fm", *EULER],
        "a9ea87a1b61f529607d3be4a7f0aa79f68b3223b1c866d97576e24698e137555"),
    "gradient-linear-fd": (["gradient", "--model", "linear", "--mode", "fd", *EULER],
        "e77e27dcd14f3e4dcc9c18b02ac7b797aa227a3d86c6cc4ea1c7e6cc31220193"),
    "gradient-linear-cs": (["gradient", "--model", "linear", "--mode", "cs", *EULER],
        "39a04ec5655a43f88b86dac4277b972c12354195caed2da29489d384122fb121"),
    "gradient-zero-rm": (["gradient", "--model", "zero", "--mode", "rm", *EULER],
        "8e9bcbf8078bb0fc9f025e1ed136d666697b345e543428a7c34edfc512ddcd1c"),
    "compare-euler": (["compare", *EULER],
        "dc75bd68c1d77789bf476fe39e6481ef139e141e90a3ae94136298a49cb58abd"),
    "compare-rk23": (["compare", *RK23],
        "3cc49b13aa951b40ada243f1ef1192113bc768db521ee30e84701c99e43904f8"),
    "hessian-for": (["hessian", "--method", "for", *HESS],
        "3c61fc3d9e1774b57cd1bb6dcc6f8fe7467629e2c53a4f2be862eddefd4b856a"),
    "hessian-fd": (["hessian", "--method", "fd", *HESS],
        "e863187d52bed2776a36dc67565547f40625e3fae90ddb4b9f6193df9d780582"),
}

# the aligned text table `compare` prints to stdout when --output is given
GOLDEN_COMPARE_TABLE = {
    "compare-euler": "f0733040870a9aa13ebb4939867891517dadfe3890eed8ea8c7a21a262eae4de",
    "compare-rk23": "31ee4eaf20315f8b0c4c1c868a033805283259abac08920db32f109cde4b4b26",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_file_digest(case, tmp_path, capsys):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out.read_bytes()) == digest
    if case in GOLDEN_COMPARE_TABLE:
        stdout = capsys.readouterr().out
        assert _digest(stdout.encode("utf-8")) == GOLDEN_COMPARE_TABLE[case]
