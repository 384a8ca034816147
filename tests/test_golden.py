"""Golden digests: the exact output bytes and exit code of small runs.

Every subcommand runs on every relation at dim 3 with 32 pairs, 32 grid
samples and delta 0.01; the SHA-256 of its ``--json -`` output and its
exit code are pinned.  Two ``axioms`` runs that fail a check are pinned
as well, so their witnesses are part of the bytes: ``inner`` at radius
1e-100 fails independence, and ``bj:l1`` is not symmetric.  The same
runs pin the human-readable stdout and the ``--csv -`` output, with a
diverging ``extract`` besides.  Larger ``inner`` runs put point arrays
on each side of the leaf maps' column gates.  A change that moves any
output byte has to say why and re-pin here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from orthostab.cli import main

SMALL = ["--dim", "3", "--pairs", "32", "--samples", "32", "--delta", "0.01"]

# (command, relation and extra flags), exit code, sha256 of the JSON
GOLDEN = [
    ("axioms trivial", 0,
     "d032552545da311d1f8abde2daff497008d25a78d2e0bcbf7bf23925ec3d842c"),
    ("axioms inner", 0,
     "3f200f775a4cef84b4d3ca995fd817b66115a7dfebcd7ec77b3e9c3893ffc5e0"),
    ("axioms bj:l1", 0,
     "fedcfe6a443a554178ab3fb96e177689fad8e3a91f4364b5931f2a3b385f4e0e"),
    ("axioms bj:l2", 0,
     "a4e5a31ca5d7f3feb1e803bfb987192a8705791b83db02cfd08287d485fef6bf"),
    ("axioms bj:linf", 0,
     "c358de99ca9c61a7e85961b99b5719afd8f006e1cfc0894d5f40053f872840f2"),
    ("defect trivial", 0,
     "3f0fc0275e3e41eb4fe230be1d956631f6f6a32aa4cf2a1109f533037160f65f"),
    ("defect inner", 0,
     "39a3229ec684985f53cb7785bf469edebd55708106287ea1497854b12a1b7c09"),
    ("defect bj:l1", 0,
     "9117b55d69c2efabf98d2c1f1fbb598addcd7865288d442b5c2c4e5dfce7c22c"),
    ("defect bj:l2", 0,
     "bf3d2cbdcc59209358e4dcccddbd8f9af9ab09f6f37ab2e987b17cf8ec72ea56"),
    ("defect bj:linf", 0,
     "9e2f97db11046b5a1f337600b36557d230886706304b564fa098319bdb90c8fd"),
    ("extract trivial", 0,
     "7c0b01c3eea7e0e43ea916e117f9a614b08889aa569e7256f65948e562538795"),
    ("extract inner", 0,
     "9ecb7a46accad54fd5721083ce4831dfe946df22153f1683860edbbdd4ef371d"),
    ("extract bj:l1", 0,
     "8bbed78ca0a48c7d82dd65f4336f5610c3770d6291dc884b8b78d553d43d06e5"),
    ("extract bj:l2", 0,
     "1380ace9763e47e8710270c9fac7511a1a83848e8f4eb1078377aef184686447"),
    ("extract bj:linf", 0,
     "9ebaceb9b4c558622364596315942689670ab6b9991fbf5f314dace5a2e278a1"),
    ("report trivial", 0,
     "b1c93bcf07c98d4741d2170e17e0613644649207558fbf7c71dc7bff02580633"),
    ("report inner", 0,
     "8b0eb3014f4c1fd0c9746343882ea1baf3143626a3ab2c9a32ac5976cbb98479"),
    ("report bj:l1", 0,
     "2262772fb52f9efb3e3640495bd07883284cc333ea0336ceb9c35256ec6cb4dc"),
    ("report bj:l2", 0,
     "c78675f0823037a22bfcdc128de1e7d081e5f8642ec2a9ef2702796a85f440e5"),
    ("report bj:linf", 0,
     "18ef1f80486aef68da80c8cd6a9bcc07a5373bd86a9e3663ecbde086b7e13128"),
    ("cauchy trivial", 0,
     "7d0841456087b8283daf14a09db90273515a396171296cb66c8a18a474cb302c"),
    ("cauchy inner", 0,
     "455b3eaeb46489a9a3066bfd26630c47602705158f291678cbbc7820d5d4a5d2"),
    ("cauchy bj:l1", 0,
     "a656e91460b2e38e3348aa2eee51deb4a3c26942c333301c79d5fada7c899603"),
    ("cauchy bj:l2", 0,
     "5dd13c60fc108f6aed1f56a1a6b2265282a2c154a0c25e99a3599b20f34c0f36"),
    ("cauchy bj:linf", 0,
     "50255180706920656b59b03a26c457355eb3fc5beb4fd06afcc01686cdc2dbc3"),
    ("quadratic trivial", 0,
     "e83308deefe5fa2944ba8ab31d163f88c853c366b20fe967ffe67d134a386086"),
    ("quadratic inner", 0,
     "3c819bbba5c72bbed09ae4f35e3a198211e6b2b6dff1b2eab08e65350950e972"),
    ("quadratic bj:l1", 0,
     "9f561a33f8075e1eecaf4e4198e528da85ccbf64ba16dde359f5b91afb3f6107"),
    ("quadratic bj:l2", 0,
     "e515c658675b63ce769dc267d4ee2b155680fa499d652cd6f4ced3d45fdcc155"),
    ("quadratic bj:linf", 0,
     "8a1b18d1f0207ef38a9d1e30d436722bb78aecc3427b937e95947d792dddc232"),
    ("axioms inner --radius 1e-100", 1,
     "5e0799bc3014287c6fe046d4a8f0dd4979e9a520773afa73d4d67adb845c5124"),
    # point arrays on each side of the leaves' column gates: 511 and 512
    # rows for the noise, 63 and 64 for the quadratic map, 7 and 8
    # columns, and the two-index einsum from 16 coordinates on
    ("report inner --samples 510 --pairs 511", 0,
     "d92c71c151bf530184dab570f53927b17e4ed270ccf9b70d9fbfdad2ffb02a31"),
    ("report inner --samples 511 --pairs 512", 0,
     "2d614329895cbd00b7aa679f230967ece6464d19b230cd75f46f9bca1f5d02b0"),
    ("quadratic inner --samples 62 --pairs 64", 0,
     "25ce90e2785193c1c4170ec4c8d0cba285f6b16dcb5b32866d952560ab2c932d"),
    ("quadratic inner --samples 63 --pairs 63", 0,
     "c58a96271bdf99a6791f5b4c531966d8ffb26e2907181655f7d7e09f48aadcde"),
    ("report inner --dim 7 --samples 600 --pairs 64", 0,
     "33e2acfa5ed6392bff8d57e3755db01cd0d16e53fe6cc596a13080f256335367"),
    ("report inner --dim 8 --samples 600 --pairs 64", 0,
     "1cae90d9ba59ff90c78e578a4a5379a9925b92664028676ed932445da03a62ce"),
    ("report inner --dim 16 --samples 600 --pairs 64", 0,
     "6bfcf0c181e711e16ac3162085412387e415e95dc2f508e04ed149e224d4a881"),
    ("cauchy inner --delta 0.001 --samples 256 --pairs 512", 0,
     "6b66e5a835e998fc9bd995002b94be10e5ae9108987a82cd52f903d16a77410c"),
    ("extract inner --samples 600 --pairs 64", 0,
     "50cbe08389105751c4f57ec8cef4d40355eb7b16e005085ac129c68f8c106c02"),
]

# (command, relation and extra flags), exit code, sha256 of the
# human-readable stdout, sha256 of the --csv - output
TEXT_AND_CSV = [
    ("axioms trivial", 0,
     "04f4abd727a73951f8b8203671cb85605803f5b0ff0a8deb984c07bab6630ad4",
     "c0a1215c918a44677a8935f389767298b7407001b2b99dce27d59e44f6dac4b1"),
    ("axioms inner", 0,
     "fef7da009dba40a788ae63226e19ad61545d7108a5920cd79cc9e536ebcafe92",
     "c0a1215c918a44677a8935f389767298b7407001b2b99dce27d59e44f6dac4b1"),
    ("axioms bj:l1", 0,
     "287feece9d7e4246ed3f9aff11e3c86cc7189f5ef65e1d2fd54bd03ffa4def37",
     "171b4af61f4be00967cf22a25659a50b918baa80855091b0c27a742e7e0b8426"),
    ("axioms bj:l2", 0,
     "54b94d25eefbf432d9509ee3934591d61a73a7138f5e1a44f36c461b3953b8dc",
     "c0a1215c918a44677a8935f389767298b7407001b2b99dce27d59e44f6dac4b1"),
    ("axioms bj:linf", 0,
     "287feece9d7e4246ed3f9aff11e3c86cc7189f5ef65e1d2fd54bd03ffa4def37",
     "171b4af61f4be00967cf22a25659a50b918baa80855091b0c27a742e7e0b8426"),
    ("defect trivial", 0,
     "3f0517664d28f1051971197760ef4f6f95024a04b3b34e74fd5bda8026fbdb5b",
     "40c0787b39966bc51ca3246d0a74ce52af8ad62e87641ac29730478a2d6d2673"),
    ("defect inner", 0,
     "bfdd4d55931f349b98a35c25c77e139b6752a10290544a3eaebb09728db7422e",
     "081075070d5a0b02424bd50981613181ce51c17cb0a210395d80f2010dad0fdf"),
    ("defect bj:l1", 0,
     "5866480e4c003012bea973ac58084d589e5f1ed76ea444aa9a692dd8251f50a1",
     "bc3f2b18a9d92ad442f72ea0a215322252ad528d29dd99ccfa35fd61f3c01ace"),
    ("defect bj:l2", 0,
     "bfdd4d55931f349b98a35c25c77e139b6752a10290544a3eaebb09728db7422e",
     "081075070d5a0b02424bd50981613181ce51c17cb0a210395d80f2010dad0fdf"),
    ("defect bj:linf", 0,
     "77c51a9b770542d7019e5797a25bdb514cf64788c60cdddc8572041c618c4567",
     "b0b997fb2a42ddad0d356f9791397034b48ecb1f7b6d62e69be1916ad7d5a24f"),
    ("extract trivial", 0,
     "b7de490cfaee207732897e94346a47c98abb42b70cc45df1c0f5aed038cae0d9",
     "988b8ef6f1258807f6b6af90765d6d76d53a0199d4ec8eb274c47bdb9df2b907"),
    ("extract inner", 0,
     "b7de490cfaee207732897e94346a47c98abb42b70cc45df1c0f5aed038cae0d9",
     "988b8ef6f1258807f6b6af90765d6d76d53a0199d4ec8eb274c47bdb9df2b907"),
    ("extract bj:l1", 0,
     "b7de490cfaee207732897e94346a47c98abb42b70cc45df1c0f5aed038cae0d9",
     "988b8ef6f1258807f6b6af90765d6d76d53a0199d4ec8eb274c47bdb9df2b907"),
    ("extract bj:l2", 0,
     "b7de490cfaee207732897e94346a47c98abb42b70cc45df1c0f5aed038cae0d9",
     "988b8ef6f1258807f6b6af90765d6d76d53a0199d4ec8eb274c47bdb9df2b907"),
    ("extract bj:linf", 0,
     "b7de490cfaee207732897e94346a47c98abb42b70cc45df1c0f5aed038cae0d9",
     "988b8ef6f1258807f6b6af90765d6d76d53a0199d4ec8eb274c47bdb9df2b907"),
    ("report trivial", 0,
     "de724f910a3724c318a2a9798f61d625049acb8febd62e175b383d5e73d2c910",
     "4c5f34c43dd55ef433f32ff76e28b6145841b5f4633d9a3d839b485fd4c21398"),
    ("report inner", 0,
     "70dec14a22131f0947e177548de3721693397b00c94a6b89b31abb3de7e10b27",
     "84907f1d957a55a43ea2cd007becc952794fe21beea4973d87f43428d63f81e3"),
    ("report bj:l1", 0,
     "a1ddfdea28578b3ef6b5ce00845a5815162b15bad572a417fb3283fd33ae53a9",
     "70872b5761b3e375734efc7a35d3b848ec0ff1ca1d2572c0183172746def189b"),
    ("report bj:l2", 0,
     "b04fd8f2134eaafb8e4ef728705fa30bd70569c8100c4fee841f79e63a2f8d84",
     "84907f1d957a55a43ea2cd007becc952794fe21beea4973d87f43428d63f81e3"),
    ("report bj:linf", 0,
     "5a77b1bbfa4ce558cc3d2655b76ddb01d495c4d3e5a0886c08e618aee6585d7b",
     "66910daaa462948a078e9890e38bda807ba7a5326f136bb394b2452d3cf07ef9"),
    ("cauchy trivial", 0,
     "67be1f9817cc2283426ef17c4281f2356484a766b70bb92fd062bc346703fc11",
     "06f0eb507b44d55acaa613153fa60523bd5c02226c8987b418368b2abe544597"),
    ("cauchy inner", 0,
     "dc50ffecbd8ba037bc0c110a1e0fa6f550a1d41e11aa1946960aee0f95934851",
     "eadfa07fbe816c87de02c84d0f68b1d0a507e91ff4f3a57775ce0b2b511b3773"),
    ("cauchy bj:l1", 0,
     "c270280540f4ba8b8211f276572f9b49a7dac0adb181d8a4a97ac4ff49c89b67",
     "3dd94c587ab1dff4642a00d413ee496fcfe3188af751f89fe6dfa5964b889e4f"),
    ("cauchy bj:l2", 0,
     "2c6fbdffcfa40f0c6fadf2b676dacab53027253376fadab59561cde89518607e",
     "eadfa07fbe816c87de02c84d0f68b1d0a507e91ff4f3a57775ce0b2b511b3773"),
    ("cauchy bj:linf", 0,
     "fc864e6079c174839dd8a8dcdf7ec1a471956b5ccd7b193eabdbe9df96e30e99",
     "c8ede733b7273dbc955a55ac49d93e420b75e8891672f832b9a68d412d5c8779"),
    ("quadratic trivial", 0,
     "4617985b4c74bab0b4bd819251ea95fc169e6ee3af57f7f0cc52f350e200cf0c",
     "925b0857177b50bba0c0d1d0e5406141718eae8925fb9a4a6f3d8840a82ec85f"),
    ("quadratic inner", 0,
     "5fd76fd3abd3105d402a463d7c56029ef9b312617f1087d09bf2d93836b645f3",
     "8598b55626aa0a3d851d800cee3513b9649962c975aa3b47bff9b09d20b96de9"),
    ("quadratic bj:l1", 0,
     "1e640da5d8ef23220cac2574ec656b13d322c3a26fbd7c6d4134c2159808d5d7",
     "749c74ce882b16cfe4688dfda030f4a33e9d4a69f8df80f413aed8b1c765bff5"),
    ("quadratic bj:l2", 0,
     "09e51d6c28fa22b07cbb11e1532bec7802035041225f42b20a4083931a08ce2e",
     "8598b55626aa0a3d851d800cee3513b9649962c975aa3b47bff9b09d20b96de9"),
    ("quadratic bj:linf", 0,
     "d1d0db55bfa14c8cf1f9dd10e656df317c623bcda17930c2928ddcea529abad3",
     "b6a9dd0aaedc1387ebb00c43b495a3b46d005f6a2658aa6cf4faf23ce0657c14"),
    ("axioms inner --radius 1e-100", 1,
     "65949d1e8a4ae5cc82356ead75bf62e537cfed13d671020357317832a4662f49",
     "9f295736878e006d5c4bbdb0a36fe0d6050309b3fd5800bf99e749f97977a531"),
    ("extract trivial --cubic 1.0", 3,
     "929bdbbfee366641e288505469ed31a72e729106ff51f068de84b36da4777f99",
     "fcaf9ee67b9cdfe4f56f7ff3304db238a3e68d69dd301f7d0bd64f4f7e126e52"),
]


def _run(spec: str, *output: str):
    command, relation, *extra = spec.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--relation", relation, *SMALL, *extra,
                   *output])
    return rc, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec, code, digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_json_bytes_pinned(spec, code, digest):
    rc, out, err = _run(spec, "--json", "-")
    assert (rc, err) == (code, "")
    assert _sha256(out) == digest


@pytest.mark.parametrize("spec, code, text, table", TEXT_AND_CSV,
                         ids=[g[0] for g in TEXT_AND_CSV])
def test_text_and_csv_bytes_pinned(spec, code, text, table):
    rc, out, err = _run(spec)
    assert (rc, err) == (code, "")
    assert _sha256(out) == text
    rc, out, err = _run(spec, "--csv", "-")
    assert (rc, err) == (code, "")
    assert _sha256(out) == table


@pytest.mark.parametrize("spec, check", [
    ("axioms inner --radius 1e-100", "independence"),
    ("axioms bj:l1", "symmetry"),
])
def test_pinned_failures_carry_witnesses(spec, check):
    _, out, _ = _run(spec, "--json", "-")
    chk = json.loads(out)["axioms"]["checks"][check]
    assert not chk["passed"]
    assert len(chk["witnesses"]) == 3
