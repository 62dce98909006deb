"""Golden pins: SHA-256 digests of CLI output files.

Every numerical path the CLI exposes is pinned bit for bit, so a refactor
or speed-up that changes any emitted number, label or layout fails here.
The digests were recorded from the reference implementation and must not
be edited to make a change pass.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odesens
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
    # the reference grid, [0, 1000] at 10001 points, under Euler and under RK23
    "solve-ref": (["solve"],
        "0735ab87ea3b492fc3c5efebab002825543adbb31df71915e7cebdccadc43dda"),
    "solve-ref-rk23": (["solve", "--solver", "rk23"],
        "4759a219d90da3e7d66c780704c7140cd926d19533f5652817ace838a4e311f9"),
    # dt 0.03 covers each 0.1 output gap with 4 substeps
    "solve-dt03": (["solve", "--dt", "0.03", *EULER],
        "09e18ff8a99d0b59af3f60dbc4dc5e0f04e873fb9af0173c4caef06b2516d2ef"),
    "sens-analytic-euler": (["sens", "--jac", "analytic", *EULER],
        "e8c3da58664568ec8899e7ec3e64453a45084a1255b8fc288c30c2aeabb4c92a"),
    "sens-ad-euler": (["sens", "--jac", "ad", *EULER],
        "e8c3da58664568ec8899e7ec3e64453a45084a1255b8fc288c30c2aeabb4c92a"),
    "sens-analytic-rk23": (["sens", "--jac", "analytic", *RK23],
        "a3c746aabddb47ac96565f13d4324112bfe79f83e746fa6df02daac58c6a579f"),
    "sens-ad-rk23": (["sens", "--jac", "ad", *RK23],
        "a3c746aabddb47ac96565f13d4324112bfe79f83e746fa6df02daac58c6a579f"),
    # the reference grid under RK23: the composite state filled over 10001 rows
    "sens-ref-analytic-rk23": (["sens", "--jac", "analytic", "--solver", "rk23"],
        "f9cf4c44ab3553bfaf2238efe4628c44f2bf77da9884fa468ca2258fa88757c2"),
    "sens-ref-ad-rk23": (["sens", "--jac", "ad", "--solver", "rk23"],
        "f9cf4c44ab3553bfaf2238efe4628c44f2bf77da9884fa468ca2258fa88757c2"),
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
    # the lowered solves step real (19, 14) states, with the RK23 Hermite fill
    "hessian-for-rk23": (["hessian", "--method", "for", "--solver", "rk23", *HESS],
        "3399c8886728cec987f2cc19d6987381a5d95af25b10c83834a6b4cbf7159e66"),
    # analytic and AD Jacobians agree bitwise, so this equals hessian-for
    "hessian-for-ad": (["hessian", "--method", "for", "--jac", "ad", *HESS],
        "3c61fc3d9e1774b57cd1bb6dcc6f8fe7467629e2c53a4f2be862eddefd4b856a"),
    # m = 1, a model with no second derivative in y, and a 200-step window
    "hessian-for-linear": (["hessian", "--method", "for", "--model", "linear", *HESS],
        "32e51cdcf86765d0075c832defd50a42c0821786984e986b07dfaebb26801a29"),
    "hessian-for-zero": (["hessian", "--method", "for", "--model", "zero", *HESS],
        "1d53ec5d58018ee57012cc08454f750b1e23420dbea0fb447a85109e59c9fdac"),
    "hessian-for-t20": (["hessian", "--method", "for", "--t-end", "20", "--n-points", "201"],
        "2d7b39186bf11aa12627c49a8edf6d642754452c3b0fdf0b40927d6ca00ea370"),
    # the reference grid, [0, 1000] at 10001 points: 10000 lowered Euler steps per solve
    "hessian-for-ref": (["hessian", "--method", "for"],
        "5f85f19a4f67b26ede7b95f139bc196edc8ef0d35bdaf6ef961814e4d390acf7"),
    "hessian-for-ref-rk23": (["hessian", "--method", "for", "--solver", "rk23"],
        "5aa5bcecca4e8e9bbe76902b828df7d504060f1cd0c74ef904a180d3980ecbed"),
    # the central-difference Hessian differences the reverse gradient at 12 points
    "hessian-fd-t20": (["hessian", "--method", "fd", "--t-end", "20", "--n-points", "201"],
        "b0d99823da167ac9646d21606cc9e788cfa023b1e266fc8260d7229f783fe206"),
    "hessian-fd-ref": (["hessian", "--method", "fd"],
        "40697cb56c5eb1679e94a1565a2b7ed694fe55e6b6d0fa059f7601c3b9c37c05"),
    # analytic and AD Jacobians agree bitwise, so this equals hessian-fd
    "hessian-fd-ad": (["hessian", "--method", "fd", "--jac", "ad", *HESS],
        "e863187d52bed2776a36dc67565547f40625e3fae90ddb4b9f6193df9d780582"),
    "hessian-fd-linear": (["hessian", "--method", "fd", "--model", "linear", *HESS],
        "85074aadb1a75073f51c621238d1c94b86b0c9d88c96978a647903c1a104072c"),
    # a zero gradient differences to the zero Hessian, so this equals hessian-for-zero
    "hessian-fd-zero": (["hessian", "--method", "fd", "--model", "zero", *HESS],
        "1d53ec5d58018ee57012cc08454f750b1e23420dbea0fb447a85109e59c9fdac"),
    "hessian-fd-rk23": (["hessian", "--method", "fd", "--solver", "rk23", *HESS],
        "871306089ece3ba66351c23f9c74bbd28a8b5577effd76b30e48adeb00ae5925"),
    "gradient-rm-rk23": (["gradient", "--mode", "rm", *RK23],
        "f3c74c4aa006204185556f07b6d131ff235c7fad65d301de421137e17a901313"),
    "gradient-fm-rk23": (["gradient", "--mode", "fm", *RK23],
        "f3c74c4aa006204185556f07b6d131ff235c7fad65d301de421137e17a901313"),
    # the AD provider on the lowered paths equals the analytic one bitwise,
    # so each of these equals its analytic case
    "hessian-for-ad-rk23": (["hessian", "--method", "for", "--jac", "ad", "--solver", "rk23",
                             *HESS],
        "3399c8886728cec987f2cc19d6987381a5d95af25b10c83834a6b4cbf7159e66"),
    "hessian-fd-ad-rk23": (["hessian", "--method", "fd", "--jac", "ad", "--solver", "rk23",
                            *HESS],
        "871306089ece3ba66351c23f9c74bbd28a8b5577effd76b30e48adeb00ae5925"),
    "hessian-for-ad-linear": (["hessian", "--method", "for", "--jac", "ad", "--model", "linear",
                               *HESS],
        "32e51cdcf86765d0075c832defd50a42c0821786984e986b07dfaebb26801a29"),
    "hessian-for-ad-t20": (["hessian", "--method", "for", "--jac", "ad", "--t-end", "20",
                            "--n-points", "201"],
        "2d7b39186bf11aa12627c49a8edf6d642754452c3b0fdf0b40927d6ca00ea370"),
    # the reference grid, [0, 1000] at 10001 points; analytic and AD agree bitwise
    "sens-ad-ref": (["sens", "--jac", "ad"],
        "7bd6790f80eabc9758aab0115bb4c238d7672a0d199ee56900410061eb06f518"),
    # dt 0.03 covers each 0.1 output gap with 4 substeps
    "sens-analytic-dt03": (["sens", "--jac", "analytic", "--dt", "0.03", *EULER],
        "fe73755ebe1c58d6b554541a2049f1881850b74b42f34c143822f66ad3fcc4fe"),
    "sens-ad-dt03": (["sens", "--jac", "ad", "--dt", "0.03", *EULER],
        "fe73755ebe1c58d6b554541a2049f1881850b74b42f34c143822f66ad3fcc4fe"),
    # every output of the zero model is a constant of the dual pass
    "sens-zero-ad": (["sens", "--model", "zero", "--jac", "ad", *EULER],
        "a89a6e587f3c285a2b42ce2daaed43b7fdf972148b1dd2674c72da6edd3530fe"),
    "gradient-rm-ad": (["gradient", "--mode", "rm", "--jac", "ad", *EULER],
        "a70d5ffc38bc3021cc80870e53f629215d47223ef48c4861aac51964c0ac2d67"),
    # dt 0.03 covers each 0.1 output gap with 4 lowered substeps
    "hessian-for-dt03": (["hessian", "--method", "for", *HESS, "--dt", "0.03"],
        "19ab79adc3df437ece5e6f02668c1636fe0928ae6b005771b8ba148aa9576cda"),
    # the AD provider's lowered solves equal the analytic ones bitwise, so this equals
    # hessian-for-dt03, and hessian-for-ad-ref below equals hessian-for-ref
    "hessian-for-ad-dt03": (["hessian", "--method", "for", "--jac", "ad", *HESS, "--dt", "0.03"],
        "19ab79adc3df437ece5e6f02668c1636fe0928ae6b005771b8ba148aa9576cda"),
    "hessian-for-ad-ref": (["hessian", "--method", "for", "--jac", "ad"],
        "5f85f19a4f67b26ede7b95f139bc196edc8ef0d35bdaf6ef961814e4d390acf7"),
    "hessian-for-linear-t20": (["hessian", "--method", "for", "--model", "linear",
                                "--t-end", "20", "--n-points", "201"],
        "b17f664dccabd924bfd88496311fc19cd3152a908c9bd84993393a44343a8878"),
    # the zero Hessian prints as hessian-for-zero does, whatever the window
    "hessian-for-zero-t20": (["hessian", "--method", "for", "--model", "zero",
                              "--t-end", "20", "--n-points", "201"],
        "1d53ec5d58018ee57012cc08454f750b1e23420dbea0fb447a85109e59c9fdac"),
    # the objective solves of the differenced gradients under RK23 read only their last row
    "gradient-fd-rk23": (["gradient", "--mode", "fd", *RK23],
        "161bde739562e034e764b1c6e90fb9b11838559242a01fa86b420136ccba0678"),
    "gradient-cs-rk23": (["gradient", "--mode", "cs", *RK23],
        "18676da1d1f110b87d801fd9083c61f2aaa3ce0f5a784f9c4114cae79016d15b"),
    # the reference grid, [0, 1000] at 10001 points, under RK23
    "gradient-fd-ref-rk23": (["gradient", "--mode", "fd", "--solver", "rk23"],
        "bcba669ba96096e101af0ced21f14f1ce1cd4fefe50d1423da4f0cab8edf89ea"),
    "hessian-fd-ref-rk23": (["hessian", "--method", "fd", "--solver", "rk23"],
        "da48f735e212d4c04245efc3c072344c7d7cd01ff8794ad193774a94c534f265"),
    # the complex-step columns under Euler on the reference grid, [0, 1000] at 10001 points
    "gradient-cs-ref": (["gradient", "--mode", "cs"],
        "71b5a51e0003c9168525c96ceaa653981e6f8ce910df6bd31e6f83791c4c31ff"),
    # the complex-step columns under RK23 on the reference grid, each with its own
    # step control, and on [0, 20] at tight tolerances, where they take more steps
    "gradient-cs-ref-rk23": (["gradient", "--mode", "cs", "--solver", "rk23"],
        "9ecb9f2541ce7799002767c9b6e4fa9e5b41a8b4af0c46f1e3b7fdf8f15798d7"),
    "gradient-cs-rk23-tight": (["gradient", "--mode", "cs", "--solver", "rk23", "--t-end", "20",
                                "--n-points", "201", "--rel-tol", "1e-6", "--abs-tol", "1e-9"],
        "55e0c736eed8dab067cda23f9df898c17a7fc2c553b197b5dc19e1a3aa5eff14"),
    # a zero gradient, so this equals gradient-zero-rm
    "gradient-cs-zero": (["gradient", "--mode", "cs", "--model", "zero", *EULER],
        "8e9bcbf8078bb0fc9f025e1ed136d666697b345e543428a7c34edfc512ddcd1c"),
    # dt 0.03 covers each 0.1 output gap with 4 complex substeps
    "compare-dt03": (["compare", "--dt", "0.03", *EULER],
        "acde3bab98dc7e0c5ad2debaf03d350f347d75ce10955ff2498de507d1bf8b71"),
    # RK23 finite differences of a one-state model, m = 1
    "gradient-fd-linear-rk23": (["gradient", "--model", "linear", "--mode", "fd", *RK23],
        "42eff2c3171bb50fee7c124129e6e4d26dba7b5377558e241850f5b5a63c2445"),
    # the Euler sensitivity gradients on the reference grid, [0, 1000] at 10001 points;
    # rm and fm agree bitwise, and so do analytic and AD Jacobians
    "gradient-rm-ref": (["gradient", "--mode", "rm"],
        "c4b4417b7d140c6ca69b10d505f521aad2ecb26854d3b98ed0b4fd2a5790999a"),
    "gradient-fm-ref": (["gradient", "--mode", "fm"],
        "c4b4417b7d140c6ca69b10d505f521aad2ecb26854d3b98ed0b4fd2a5790999a"),
    "gradient-rm-ad-ref": (["gradient", "--mode", "rm", "--jac", "ad"],
        "c4b4417b7d140c6ca69b10d505f521aad2ecb26854d3b98ed0b4fd2a5790999a"),
    # dt 0.03 covers each 0.1 output gap of the reference grid with 4 substeps
    "gradient-rm-ref-dt03": (["gradient", "--mode", "rm", "--dt", "0.03"],
        "75dc235096ab994d509871055418afb527db337d5b6a0267ca67967a71ff520a"),
    # 10 output gaps of 334 lowered substeps each, so blocks of 1024 steps end
    # mid-gap; analytic and AD Jacobians agree bitwise
    "hessian-for-t100-dt03": (["hessian", "--method", "for", "--t-end", "100", "--n-points", "11",
                               "--dt", "0.03"],
        "ef40f262a1cbbcbe0100d193cb1d45053f006dfb04ee31d9b0f0c49e925d111a"),
    "hessian-for-ad-t100-dt03": (["hessian", "--method", "for", "--jac", "ad", "--t-end", "100",
                                  "--n-points", "11", "--dt", "0.03"],
        "ef40f262a1cbbcbe0100d193cb1d45053f006dfb04ee31d9b0f0c49e925d111a"),
}

# case name -> (argv without --output, digest of the --output file), each run in a
# fresh process with one BLAS thread: the relative errors of `compare` are BLAS dot
# products of the whole matrices, which on the reference grid, [0, 1000] at 10001
# points, are long enough for OpenBLAS to split over its threads, and the partial
# sums of a split round differently
GOLDEN_ONE_BLAS_THREAD = {
    "compare-ref": (["compare"],
        "31dcf4f9be09a1bb7440076895453967daea167a79de76465a8c10d93711ca64"),
    "compare-ref-rk23": (["compare", "--solver", "rk23"],
        "b122cf3045a6f0349e6690532461681e0e4e76ab3d0461917bd14b9ff85ab295"),
}

# the aligned text table `compare` prints to stdout when --output is given
GOLDEN_COMPARE_TABLE = {
    "compare-euler": "f0733040870a9aa13ebb4939867891517dadfe3890eed8ea8c7a21a262eae4de",
    "compare-rk23": "31ee4eaf20315f8b0c4c1c868a033805283259abac08920db32f109cde4b4b26",
    "compare-ref": "97c5b3d2cd4074fec79db0b83bf6f330e1744fc5ba69e507a768371005585dae",
    "compare-dt03": "44326a57357c21ca1803a6533b5a498cb6031988c966d373ecaedc0023b8707b",
    "compare-ref-rk23": "f2769c38f6c37321188f596ebb11ff67e65ca31d40b12bb212821c2a65c51a60",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_file_digest(case, tmp_path, capsys):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert _digest(out.read_bytes()) == digest
    captured = capsys.readouterr()
    assert captured.err == ""
    if case in GOLDEN_COMPARE_TABLE:
        assert _digest(captured.out.encode("utf-8")) == GOLDEN_COMPARE_TABLE[case]
    else:
        assert captured.out == ""


@pytest.mark.parametrize("case", sorted(GOLDEN_ONE_BLAS_THREAD))
def test_output_file_digest_with_one_blas_thread(case, tmp_path):
    argv, digest = GOLDEN_ONE_BLAS_THREAD[case]
    out = tmp_path / "out.csv"
    src = str(Path(odesens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "odesens.cli", *argv, "--output", str(out)],
                         env=env, capture_output=True, check=True)
    assert _digest(out.read_bytes()) == digest
    assert run.stderr == b""
    assert _digest(run.stdout) == GOLDEN_COMPARE_TABLE[case]
