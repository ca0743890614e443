"""Byte identity of the subcommands' stdout, pinned by sha256.

Each digest is of the stdout of ``ncsym.cli.main`` run in process on the
command's arguments.  A change to the solver that alters a single byte of
a report (a generator's coefficients, the label order, the structure
constants) fails here, and so does a change to the RK4 integrator that
moves a geodesic's final state or its ``--out`` CSV by one bit, or a
change to a seeded numeric suite (``selftest``, ``fluid-check``,
``noether``) that moves one printed residual.
"""

import hashlib

import pytest

from ncsym.cli import main

GOLDEN = [
    ("solve --family cgal --d 2",
     "b7dba10ee68635b4517eccd96c27aa32f396ea9504952903cb71468900c66133"),
    ("solve --family cgal-z --z 1 --d 2",
     "942c262afbbaf6570d4b2e39518c0503b479a07b2e41106940f0bed7f9444127"),
    ("solve --family cgal-z --z inf --d 2",
     "d244c8a6bd0617bc76482e3558a7c5af00f76920a965aabec95dba69d939f991"),
    ("solve --family cgal-z --z 3/2 --d 2",
     "6e3e8856a7d526b79263077fc4dd84e453ac411d8e8eedd259f7cdde03bc4138"),
    ("solve --family gal --d 2",
     "ded40a712157c353202dc62ecb2bc65636cd6aa55b1f02f4fc64e9fbd461fb3e"),
    ("solve --family sch --d 2",
     "5731e101a7f21bf10a462d44cef03d86af204364a13c94639988d932073bbc56"),
    ("solve --family sch --z 2/3 --d 2",
     "1be497156aa980291b0611e45a54d45c4052ce695afa1d585a11a7795a2c3006"),
    ("solve --family sch-expanded --d 2",
     "923bc5ed8edf0da1a1220a35e776560c1ac6cb1f90e0e2b341728d2b3cf50db0"),
    ("solve --family cnc --d 2",
     "19d6f7f0eaab5eea871b4323743bf1237feb20fef5e638015e14bb9cd41a680e"),
    ("solve --family cmil --d 2",
     "7fac77c0e56f3ea489bcee263254be4be1eee51bd839758ae06a0918efa0da7b"),
    ("solve --family cmil --branch c2 --d 2",
     "769e57081b381a9687e7bcb03fc50589beb7ba392d4a1192aa9958532e9d1aa7"),
    ("solve --family cga --d 2",
     "8d87fed552695ee028dd1fe8eef62af1209b5bd04921ca9d7281923f4e0b17ca"),
    ("solve --family cga --z inf --d 2",
     "5cb8529fbfa8da33455fb95ec28fc1cafce3f4163a15edbf8556a2af4587fd9c"),
    ("solve --family alt --d 2",
     "0d47ac6690168a9b02ec9dc3aa2e9ffc0d582db6ae36b76507f6ece68fdb25f5"),
    ("solve --family alt --N 2 --d 2",
     "9d2ba6429908bd75bcb84834f5c2b519dc35f20ba7c06983eae041310675ab77"),
    ("solve --family cgal --d 3",
     "836a683925d3fcc5260228908a0e527d870aaea352492c18986ac9954b12f8f2"),
    ("solve --family cgal-z --z 1 --d 3",
     "ded80652662a03c2d7b73fc118c5ff43c4fd41dc16f99a9906e6dadb796a9c93"),
    ("solve --family cgal-z --z inf --d 3",
     "15989998955f30b7f4f8716b4a27d1c452f5a8fb5428071d1013aed240962b88"),
    ("solve --family cgal-z --z 3/2 --d 3",
     "abb267c612415550339cbc43456de11de1754f6f9358c06f4a1ac5a1be537815"),
    ("solve --family gal --d 3",
     "95107f8e293f12b78d1ace0fba43776dfaed42e0b53e37cefa1a2c5586ea9ce5"),
    ("solve --family sch --d 3",
     "8bb5399d16da88e826fe50f0cbab0cc4baf4dd196cb274563bb25d253210bbab"),
    ("solve --family sch --z 2/3 --d 3",
     "a2fa8ce6c3a1993b1e0f531736243040810b83a9e5a5c129a89df5a320fbd4b2"),
    ("solve --family sch-expanded --d 3",
     "f7b4af987b72e87db44ea9942ba53e0accae0f025f44d105a2e3691160a9a16f"),
    ("solve --family cnc --d 3",
     "c5d75fc5e8ff223878a90cbd6f1589b1cf2fa0806da19ccbeff32ad3d33e655e"),
    ("solve --family cmil --d 3",
     "30cc123e817a76987ba070fda29a22444e1a553476f8a91921e907702210e9b3"),
    ("solve --family cmil --branch c2 --d 3",
     "ea129d6860e75027bc4b5d57be12b6e8d3b2c752e3dbd7b964e837149f796c98"),
    ("solve --family cga --d 3",
     "b91586fea1919c6c65e0ec8b12717cbbd4235f308c221c322db1f1a82c430753"),
    ("solve --family cga --z inf --d 3",
     "69a1978cc74e423f07805950b66cde6eb3070c76292f838f1f1abac5f57e78ff"),
    ("solve --family alt --d 3",
     "90af0bb0fddfe611c9d1c494b8afef677c6c3437a79fd6f9e98ae3ac7c25b25e"),
    ("solve --family alt --N 2 --d 3",
     "e3137903443650003391295594b043e22f08c0dc226b7829c3c4416af02d7075"),
    ("solve --family cgal --d 2 --deg-t 5",
     "cdc4e6f7977fe67ab395b0b79cca1c6df407dd2407705564c98f12b877e2c004"),
    ("solve --family cgal-z --z 3/2 --d 2 --deg-t 5",
     "7d70d177c7a471a55f909dd6793fdf4b48005c45f1485e7df9728c6edfbe79da"),
    ("solve --family cgal-z --z inf --d 3 --deg-t 4",
     "8a2955d2051fadb31609773c26b974974dccd5c614026eb3eb97363d1edb42a2"),
    ("solve --family cnc --d 2 --deg-t 5",
     "bbb23c89c3b05d3ba60d9d1e65e08ef57f12c2244ba3d7201fa8a9db0d69abcb"),
    ("solve --family alt --N 4 --d 2",
     "c8cd976c823270da841241308a58426a5081b043e06f38e2d996c5e29aef6e06"),
    ("solve --family cga --z 3/2 --d 2",
     "9df44aa3833a1050832e9b787f758d7b593c329c12d085963dc24904836c523a"),
    ("bracket-table --family gal --d 3",
     "95c8f4b842b6aa0e07cd4747afe5b0ec942f17422ad21a011884b8eef0762682"),
    ("bracket-table --family sch --d 3",
     "d4feaed09a5e3de0d193be1f991b4dd0c241739382a64ee57bd042a5030cd4fb"),
    ("bracket-table --family cga --d 3",
     "722bbfe24541f77a342de16e7f76bc3159e1ca4b6e28619fad3ca58a7b33d570"),
    ("bracket-table --family alt --d 3",
     "f92fe16b3bffc0eedfd59a853a376c5d7658f777cffa9275ae344ee4fb6010e2"),
    ("bracket-table --family cmil --d 3",
     "e885ac061af1dd28cbbd03a18c9be894f9ce256ecac022797f28713bc155af9f"),
    ("bracket-table --family cmil --branch c2 --d 3",
     "f179ea28f45841418f20b59b863c4b2c6884c762dab59f67e58874403015adee"),
    ("rep-check --rep sch --d 2",
     "24a4f94cace437a5e704680c70a0ef3025d345533352dfd21a8060b77e368bce"),
    ("rep-check --rep sch --d 3",
     "4c9275f88e0983003b2da8d916a634814b4ecf66fbe00ef65ce80c2276c14954"),
    ("rep-check --rep cga --d 2",
     "f51db22f2a40aa8fb2f715ef7f008881b8de5cc878eaf61c89526170c1ae8afb"),
    ("rep-check --rep cga --d 3",
     "7f0619c0958faea5954bc05f1f9aed609b47a49a2d423697e1c28f162e3c9c4e"),
    ("em-check",
     "afdd46b3beb5ceefdf327352bb0c57668cc428d2a739ee6f51f17ae84bd8cdc7"),
    ("em-check --negative-control",
     "afdd46b3beb5ceefdf327352bb0c57668cc428d2a739ee6f51f17ae84bd8cdc7"),
    ("geodesic --model harmonic --steps 20000",
     "bea07c373bd601333604cd040e9118ccee2094db4f25b54ed7b58e0112f507d4"),
    ("geodesic --model free --steps 20000",
     "fe405609652dc2dfab79261cbb15449c5a3cf679c3b73fbdcecf5fac84b5ae83"),
    ("selftest",
     "b3ae5603d9ab38dc8a8adb2323488d21ede6f24299fdea9960fe79a214edc48c"),
    ("fluid-check --seed 0",
     "dfae177d0a6f3b64d8c768c986030f23afcce526ae94f77a4442e5193b074b93"),
    ("fluid-check --negative-control --seed 0",
     "dfae177d0a6f3b64d8c768c986030f23afcce526ae94f77a4442e5193b074b93"),
    ("noether --model massive --seed 0",
     "4b54a516d6090145f9a5e1f2d51c6b024943d27d6907cb1dd3f73a21b27ff349"),
    ("noether --model photon --seed 0",
     "d48d7cd8e332d77fbbc54352ed3896754963c128fe9b597b14dde3591d205252"),
]

GEODESIC_CSV = "0c65df96e8dc00cf20fd48231069f751109614054d1fa19c247b95d991909668"


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(command, digest, capsys):
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_geodesic_csv_digest(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["geodesic", "--model", "harmonic", "--steps", "5000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEODESIC_CSV
