"""Golden digests: the exact --json bytes and exit code of small runs.

Every subcommand runs on every relation at dim 3 with 32 pairs, 32 grid
samples and delta 0.01; the SHA-256 of its ``--json -`` output and its
exit code are pinned.  Two ``axioms`` runs that fail a check are pinned
as well, so their witnesses are part of the bytes: ``inner`` at radius
1e-100 fails independence, and ``bj:l1`` is not symmetric.  A change
that moves any output byte has to say why and re-pin here.
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
]


def _run(spec: str):
    command, relation, *extra = spec.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--relation", relation, *SMALL, *extra,
                   "--json", "-"])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("spec, code, digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_json_bytes_pinned(spec, code, digest):
    rc, out, err = _run(spec)
    assert (rc, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, check", [
    ("axioms inner --radius 1e-100", "independence"),
    ("axioms bj:l1", "symmetry"),
])
def test_pinned_failures_carry_witnesses(spec, check):
    _, out, _ = _run(spec)
    chk = json.loads(out)["axioms"]["checks"][check]
    assert not chk["passed"]
    assert len(chk["witnesses"]) == 3
