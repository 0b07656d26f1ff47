"""Byte-identical CLI output on a fixed command corpus.

Each command runs through click's ``CliRunner`` inside a fresh working
directory, on instances that ``gen`` writes from fixed seeds.  The
SHA-256 of its stdout, followed by the bytes of any file it writes, is
compared with a recorded table together with its exit code.  A change
that moves any of them must update the table on purpose and say why;
``record`` returns the new table.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from click.testing import CliRunner

from matchkit import SplitMix64
from matchkit.cli import main

SIZES = (2, 3, 5, 40)
DISTS = ("uniform01", "int:0:9")
CELLS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
MODELS = ("fnt", "ft", "ft_nonneg", "ft_m2w", "ft_taxed")


def _with_beta(path: str, seed: int) -> str:
    """Copy an instance file with seeded retention factors in (0.5, 1]."""
    data = json.loads(Path(path).read_text())
    rng = SplitMix64(seed)
    n = data["n"]
    data["beta"] = [[1.0 - 0.5 * rng.uniform01() for _ in range(n)] for _ in range(n)]
    out = path.replace(".json", "_beta.json")
    Path(out).write_text(json.dumps(data))
    return out


def _corpus():
    """(label, argv, written file or None) for every command, in order;
    earlier commands write the files later ones read."""
    for d, dist in enumerate(DISTS):
        for n in SIZES:
            seed = 10 * n + d
            inst = f"{dist.replace(':', '_')}_{n}.json"
            yield f"gen {dist} n={n}", [
                "gen", "--n", str(n), "--seed", str(seed), "--dist", dist, "--out", inst
            ], inst
            for proposer in ("men", "women"):
                out = f"da_{proposer}_{inst}"
                yield f"solve nt {proposer} {inst}", [
                    "solve", "nt", "--instance", inst, "--proposer", proposer, "--out", out
                ], out
            yield f"solve ft {inst}", ["solve", "ft", "--instance", inst], None
            matchings = [f"da_men_{inst}"]
            if n <= 5:
                ident = f"identity_{inst}"
                Path(ident).write_text(json.dumps({"assignment": list(range(n))}))
                matchings.append(ident)
            taxed = _with_beta(inst, seed)
            for matching in matchings:
                for p, q in CELLS:
                    yield f"check {matching} p={p} q={q}", [
                        "check", "--instance", inst, "--matching", matching,
                        "--p", str(p), "--q", str(q),
                    ], None
                for model in MODELS:
                    path = taxed if model == "ft_taxed" else inst
                    yield f"core {model} {matching}", [
                        "core", "--model", model, "--instance", path, "--matching", matching
                    ], None
    for p, q in ((0.2, 0.8), (0.0, 1.0), (0.5, 0.5), (0.8, 0.2)):
        yield f"counterexample p={p} q={q}", [
            "counterexample", "--p", str(p), "--q", str(q), "--out", "ce.json"
        ], "ce.json"
    for seed in (0, 1):
        yield f"sweep seed={seed}", [
            "sweep", "--n", "3", "--grid", "3", "--trials", "2", "--seed", str(seed),
            "--out", "sweep.csv",
        ], "sweep.csv"
    # Tables drawn in blocks, large enough to span many rows per side, and
    # the sweep at its CLI defaults: 2,420 drawn trials.
    for d, dist in enumerate(DISTS):
        out = f"large_{d}.json"
        yield f"gen {dist} n=300", [
            "gen", "--n", "300", "--seed", str(3000 + d), "--dist", dist, "--out", out
        ], out
    yield "sweep defaults seed=1", [
        "sweep", "--n", "3", "--grid", "11", "--trials", "20", "--seed", "1",
        "--out", "sweep.csv",
    ], "sweep.csv"


def record(tmp_path) -> dict[str, tuple[str, int]]:
    """Run the corpus in ``tmp_path``; label -> (sha256 hex, exit code)."""
    runner = CliRunner()
    table = {}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for label, argv, written in _corpus():
            result = runner.invoke(main, argv)
            digest = hashlib.sha256(result.stdout_bytes)
            if written is not None and result.exit_code == 0:
                digest.update(Path(written).read_bytes())
            table[label] = (digest.hexdigest(), result.exit_code)
    return table


GOLDEN: dict[str, tuple[str, int]] = {
    "gen uniform01 n=2": ("c6b43bdadaa9320cdad66d9f5df53ed3bfbe259e573b34eef1a07895bd70e587", 0),
    "solve nt men uniform01_2.json": ("b40d5aa6a1d61075c5b122015d5a6cc0b4bd58e253230f009f1f3e9d392a6a5c", 0),
    "solve nt women uniform01_2.json": ("2d28cde06b6dfbc66a4aa24e0b8f2786ab5ba83725523b477db0c0aee72781d3", 0),
    "solve ft uniform01_2.json": ("927683063c5dabe242a8886b644cab5d98d0d17611949cd2123270bdb3ed575b", 0),
    "check da_men_uniform01_2.json p=0.0 q=0.0": ("f82f520b15e5e6d1b169a8cebc31ac0008a9f6e7382c9e5f39985a769b454469", 0),
    "check da_men_uniform01_2.json p=0.5 q=0.5": ("3fe776281a0988b21f61bc18afc6e2ce01fbab5bec8ef4fe116cfb111a82cf03", 1),
    "check da_men_uniform01_2.json p=1.0 q=1.0": ("936f536ec617816fe02b1f4574a8a2f81a8e15bcba0512a1ec1c7f36a9821257", 1),
    "check da_men_uniform01_2.json p=0.0 q=1.0": ("c96ec683f2772664b4d35be5c5b61862b20b0fb9a79391cc6b28e923874780ac", 1),
    "check da_men_uniform01_2.json p=1.0 q=0.0": ("81032a9ba02e648e6e3a9f5fc1d01896eb2c851bba3f80f5aab5ace357f154d9", 0),
    "core fnt da_men_uniform01_2.json": ("f8a6c1c2d754444aa5a88e43bf112217ba6a0b4137a04fd0f3b47f93aaff2bd3", 0),
    "core ft da_men_uniform01_2.json": ("150fb73e4debe52fadfc3f2f05b057913c1c535371d9c5189892959079ad70c9", 1),
    "core ft_nonneg da_men_uniform01_2.json": ("692e049c4d8d98aeb3374aa683e413c680b6c9fa4f0e715c3ec1ebf79702f5d9", 1),
    "core ft_m2w da_men_uniform01_2.json": ("132d3f0d09f0705457785a9d50e0d4e7349a2d8b0ea7a2e4f15a354051cbbe96", 0),
    "core ft_taxed da_men_uniform01_2.json": ("89b927eabe22b830497db7e933c3a0a456d45cb6e770da5562216541284b77c1", 0),
    "check identity_uniform01_2.json p=0.0 q=0.0": ("f82f520b15e5e6d1b169a8cebc31ac0008a9f6e7382c9e5f39985a769b454469", 0),
    "check identity_uniform01_2.json p=0.5 q=0.5": ("3fe776281a0988b21f61bc18afc6e2ce01fbab5bec8ef4fe116cfb111a82cf03", 1),
    "check identity_uniform01_2.json p=1.0 q=1.0": ("936f536ec617816fe02b1f4574a8a2f81a8e15bcba0512a1ec1c7f36a9821257", 1),
    "check identity_uniform01_2.json p=0.0 q=1.0": ("c96ec683f2772664b4d35be5c5b61862b20b0fb9a79391cc6b28e923874780ac", 1),
    "check identity_uniform01_2.json p=1.0 q=0.0": ("81032a9ba02e648e6e3a9f5fc1d01896eb2c851bba3f80f5aab5ace357f154d9", 0),
    "core fnt identity_uniform01_2.json": ("f8a6c1c2d754444aa5a88e43bf112217ba6a0b4137a04fd0f3b47f93aaff2bd3", 0),
    "core ft identity_uniform01_2.json": ("150fb73e4debe52fadfc3f2f05b057913c1c535371d9c5189892959079ad70c9", 1),
    "core ft_nonneg identity_uniform01_2.json": ("692e049c4d8d98aeb3374aa683e413c680b6c9fa4f0e715c3ec1ebf79702f5d9", 1),
    "core ft_m2w identity_uniform01_2.json": ("132d3f0d09f0705457785a9d50e0d4e7349a2d8b0ea7a2e4f15a354051cbbe96", 0),
    "core ft_taxed identity_uniform01_2.json": ("89b927eabe22b830497db7e933c3a0a456d45cb6e770da5562216541284b77c1", 0),
    "gen uniform01 n=3": ("60d7895a2c45c7d3150c8f19aea04069e5a0502f30ad4fce5aca456826e2998a", 0),
    "solve nt men uniform01_3.json": ("41fbae3424925c0f5e3910b1359769bccd2b342e92165d1d33d6037bb0b35975", 0),
    "solve nt women uniform01_3.json": ("8fafafbe757233a3b9d75be13661bc78fc7b8c6b80d46dbaa3032b73b465b9a7", 0),
    "solve ft uniform01_3.json": ("9eaf72c6ac4d706ac019989d131c0661acd56867469a8afa70bf37b014656a5f", 0),
    "check da_men_uniform01_3.json p=0.0 q=0.0": ("d2ae888ee3883c053368310ede86f7fdc5be4c9c024071673c3fab8ffafa82e2", 0),
    "check da_men_uniform01_3.json p=0.5 q=0.5": ("a4b82382fc8a1315f3d2f3afef4620d9ff182c986da53650709e2eb54edaedb0", 0),
    "check da_men_uniform01_3.json p=1.0 q=1.0": ("ce2c263b653d77c2484d5942cdc18437ae594541f7d606c91aafe77e66d99147", 0),
    "check da_men_uniform01_3.json p=0.0 q=1.0": ("5a560405beaa98f4191d4a1bb414b3137cfd7ea6017e9c7529ac7d48c27fe392", 0),
    "check da_men_uniform01_3.json p=1.0 q=0.0": ("6a96013ce7fc162cb794213f0ad44eafaf182fce33f683212e6e2338f2c483d2", 0),
    "core fnt da_men_uniform01_3.json": ("c8d294defba9bd555cf7a85169004f6a37993e58a01d694222d28250c56dfa82", 0),
    "core ft da_men_uniform01_3.json": ("103592b1a1563fba6132db00ea8270da527705f6611070b44b74899357c15faf", 0),
    "core ft_nonneg da_men_uniform01_3.json": ("ade9714ca830f53c9a1c747c306c20a3584e5c445f9b4900f31799c1804d306a", 0),
    "core ft_m2w da_men_uniform01_3.json": ("81005eb5ecedc47f38cafc2e922a988bd97e2488d08bae7cb889a82ac3dab7ad", 0),
    "core ft_taxed da_men_uniform01_3.json": ("3594b11b22267da05568ab72e4594ac6a04ac5954d274ca543be1c8666cc7be3", 0),
    "check identity_uniform01_3.json p=0.0 q=0.0": ("0587e40aaa7bd28c8732248280aa0ce2a555a2a6afd58f1826302ca53601bdda", 1),
    "check identity_uniform01_3.json p=0.5 q=0.5": ("fc1143fa6774b4bde8f854ca443e28ba573b42e3e08a69b60c29760192b09d31", 1),
    "check identity_uniform01_3.json p=1.0 q=1.0": ("68b4f60e388c293f8cc7305e2182d0cc04495d386242f2498cb93e1c130e71bb", 1),
    "check identity_uniform01_3.json p=0.0 q=1.0": ("b6b4019b945799dc3d001a4b5781b58c667755b2c30bcbd255dbd4e3fec19c73", 1),
    "check identity_uniform01_3.json p=1.0 q=0.0": ("921dc3fbc74845a4674441680597c548270c05bd0db6027b6c455cb1e3487b0b", 0),
    "core fnt identity_uniform01_3.json": ("c90e378e8ef5de23f1b7cb298ba3e9ce3f397c9f6c7004247aa3b2b1f3203757", 1),
    "core ft identity_uniform01_3.json": ("bc344ade27f18c616bab4c7dc53041038ddc0962e825b9332cfe9e3778ede332", 1),
    "core ft_nonneg identity_uniform01_3.json": ("8517848ed1452d0f5310f4de90695ce4c5fb99ee0a8a444859bb81e99cb55b98", 1),
    "core ft_m2w identity_uniform01_3.json": ("d2848cee2ce9d0fd9de7a6385ab324bf3b803547b549c33098a5fad0f0b41e43", 1),
    "core ft_taxed identity_uniform01_3.json": ("fc4fa35ba679534d0b3ead67fcd11fb10b7f68fe78e656f4732a8523ad54db79", 0),
    "gen uniform01 n=5": ("a8b5f704b00d95c4b6f687c103369560aee6c32741a0d1f5eeb0f80f18bf1f82", 0),
    "solve nt men uniform01_5.json": ("967e8f2a186228bf8a82e33c98398d17bdf687419078b31a76eccb401cc327fc", 0),
    "solve nt women uniform01_5.json": ("c6c33132c1d0601f06f244d10dd7ba73ea96fa94528d865732cdc385b75f980d", 0),
    "solve ft uniform01_5.json": ("c40e824d6d70011d9b65bd0c5a5498271355de3d7702c93daeaf35101ccf1b8f", 0),
    "check da_men_uniform01_5.json p=0.0 q=0.0": ("22e4abae8ba9414098639719744d4b8fa9912d232945d8a024f991ed6b183f31", 0),
    "check da_men_uniform01_5.json p=0.5 q=0.5": ("44d4efb57ce8b393b5bdeabf56ef3bc47889d85ad7fcd0a12478b10ff91617c4", 0),
    "check da_men_uniform01_5.json p=1.0 q=1.0": ("db3de8bf991ee75008fc3ca844f6af41f283e346b857cf0c4c7017521b292dc8", 1),
    "check da_men_uniform01_5.json p=0.0 q=1.0": ("952613524860f1d46f95a5d6a9297b17b15b78405f3de81156aef19b68ac4114", 1),
    "check da_men_uniform01_5.json p=1.0 q=0.0": ("e6471626a8ced5a45eb626ed09ef514e7cc506ad393697dd63716faa7c4919b7", 0),
    "core fnt da_men_uniform01_5.json": ("9995dd103d9e915b0baa7b2fb6b338619141bc0e4dfb23b3df7c64e3deaa7ffe", 0),
    "core ft da_men_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg da_men_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w da_men_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed da_men_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "check identity_uniform01_5.json p=0.0 q=0.0": ("4f7a20a48432c4d02db6f8c08947f92841e602d2a3e1bbc5c49c35944bf3c7c8", 1),
    "check identity_uniform01_5.json p=0.5 q=0.5": ("ad6463d75aa24b08097d3df1c69ace1ad54bb605d681d61342350f3b393d98eb", 1),
    "check identity_uniform01_5.json p=1.0 q=1.0": ("85f5e79da3e523f8482ee00ee114f5aaf8511f895d85f92272f66436e7f7cec4", 1),
    "check identity_uniform01_5.json p=0.0 q=1.0": ("0a9d615f1d270e808ce054e11fbf12a7871cf71ec465cc74b6c561539d2fdc92", 1),
    "check identity_uniform01_5.json p=1.0 q=0.0": ("2009ad95b7f4f1e32782dd2fa244648bd0b0952219078345df74b92613bc5294", 1),
    "core fnt identity_uniform01_5.json": ("6025980c18ff733249c2b8295427f34c512a32730f2b8fb9bc8ad3566e7e2a7b", 1),
    "core ft identity_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg identity_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w identity_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed identity_uniform01_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "gen uniform01 n=40": ("5d9a6952d2fa7acd3188d56d73ebed314dc1d82ca54fa42a3385b6d105972feb", 0),
    "solve nt men uniform01_40.json": ("171f1fb593c30bbc1c956c1ca7630f138713e80ed12870a416e59d41c9538b35", 0),
    "solve nt women uniform01_40.json": ("dece96c031da5d770321ddc1a1372620c2c350723478f14dbdd27267a8431891", 0),
    "solve ft uniform01_40.json": ("1000c5961f9d52b2af97d3631624fff8473ddb3e79fd7cb87800533d0e5c26db", 0),
    "check da_men_uniform01_40.json p=0.0 q=0.0": ("a58812d00461a9785fbadeeea2f8aed2fc5c03cd4343c7b85560977c90e51e38", 0),
    "check da_men_uniform01_40.json p=0.5 q=0.5": ("cdac2134cbf05791a3eabf75890b05dbd274edf115179569169cb90df77f28ed", 1),
    "check da_men_uniform01_40.json p=1.0 q=1.0": ("c84604e2f81090ee6a6a683aa7f718b2b5e87450c9dce57239f8203e9c2043df", 1),
    "check da_men_uniform01_40.json p=0.0 q=1.0": ("d175b50269d69ed2f2e4f0ac13ab1e13f5f8e02fdbd456b4ba40a5675c2d10c6", 1),
    "check da_men_uniform01_40.json p=1.0 q=0.0": ("ca9b613eaa22ad48e577a729332260d48bc2dc3390633fc5d48ba4067cb22c42", 0),
    "core fnt da_men_uniform01_40.json": ("d81b900a2ea7aa4f7abd218121619459ad0f6d1c8647af5195f83eb794c00364", 0),
    "core ft da_men_uniform01_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg da_men_uniform01_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w da_men_uniform01_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed da_men_uniform01_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "gen int:0:9 n=2": ("1a2850e0db3727a581ce4b41e52ee72022117eb6132dea6a3d349d505d6390e7", 0),
    "solve nt men int_0_9_2.json": ("0db7508e2af59514b334623387d05e79302c9bc80ec1d74a308977d359772052", 0),
    "solve nt women int_0_9_2.json": ("6ee8ea352b1501321ebaf5cea735603e163aab6ab169c9b2465c64e9acd4a658", 0),
    "solve ft int_0_9_2.json": ("95ca7e99f6db4816f45be8874aeef5bfdd60507aad08fad67ecc8a9e37e9e869", 0),
    "check da_men_int_0_9_2.json p=0.0 q=0.0": ("f82f520b15e5e6d1b169a8cebc31ac0008a9f6e7382c9e5f39985a769b454469", 0),
    "check da_men_int_0_9_2.json p=0.5 q=0.5": ("d0c5ccad8a1536753981e170b0e80e3d1a2b1ff99dde3acc91a02cdb160cf2cb", 0),
    "check da_men_int_0_9_2.json p=1.0 q=1.0": ("c7e5b9d2fb1c2034aa3f2f823eea7e8a9d463e220cfe1135da0d8da994ee29e1", 0),
    "check da_men_int_0_9_2.json p=0.0 q=1.0": ("e41510c9f52cbccec1fce207618bbf48862417c6ae5eb0efc2c63f6c15ada4e4", 0),
    "check da_men_int_0_9_2.json p=1.0 q=0.0": ("81032a9ba02e648e6e3a9f5fc1d01896eb2c851bba3f80f5aab5ace357f154d9", 0),
    "core fnt da_men_int_0_9_2.json": ("9170cadd58529107c3ed58aed068bba42e7c0433dd754c55f010404c9322f4ce", 0),
    "core ft da_men_int_0_9_2.json": ("41cef7bdfadcccc8ebe4cf55f217e0430f6bfe958a8f54ab2b2d1b5116246ad6", 0),
    "core ft_nonneg da_men_int_0_9_2.json": ("420257706f22764d398097490a07b894af12610bbb023275ee4649cb17e9beec", 0),
    "core ft_m2w da_men_int_0_9_2.json": ("8809ba9bfac39a32b6a896886db3ff4984aa68b352ec19dda8ddd4f93eb71d72", 0),
    "core ft_taxed da_men_int_0_9_2.json": ("0fa202b85f63ba5bcb5ac286ec6195fb57b7ba43756d0d072c222a2b15d953d5", 0),
    "check identity_int_0_9_2.json p=0.0 q=0.0": ("f82f520b15e5e6d1b169a8cebc31ac0008a9f6e7382c9e5f39985a769b454469", 0),
    "check identity_int_0_9_2.json p=0.5 q=0.5": ("d0c5ccad8a1536753981e170b0e80e3d1a2b1ff99dde3acc91a02cdb160cf2cb", 0),
    "check identity_int_0_9_2.json p=1.0 q=1.0": ("c7e5b9d2fb1c2034aa3f2f823eea7e8a9d463e220cfe1135da0d8da994ee29e1", 0),
    "check identity_int_0_9_2.json p=0.0 q=1.0": ("e41510c9f52cbccec1fce207618bbf48862417c6ae5eb0efc2c63f6c15ada4e4", 0),
    "check identity_int_0_9_2.json p=1.0 q=0.0": ("81032a9ba02e648e6e3a9f5fc1d01896eb2c851bba3f80f5aab5ace357f154d9", 0),
    "core fnt identity_int_0_9_2.json": ("9170cadd58529107c3ed58aed068bba42e7c0433dd754c55f010404c9322f4ce", 0),
    "core ft identity_int_0_9_2.json": ("41cef7bdfadcccc8ebe4cf55f217e0430f6bfe958a8f54ab2b2d1b5116246ad6", 0),
    "core ft_nonneg identity_int_0_9_2.json": ("420257706f22764d398097490a07b894af12610bbb023275ee4649cb17e9beec", 0),
    "core ft_m2w identity_int_0_9_2.json": ("8809ba9bfac39a32b6a896886db3ff4984aa68b352ec19dda8ddd4f93eb71d72", 0),
    "core ft_taxed identity_int_0_9_2.json": ("0fa202b85f63ba5bcb5ac286ec6195fb57b7ba43756d0d072c222a2b15d953d5", 0),
    "gen int:0:9 n=3": ("94b28ad6a297ec61a6bd7f1c0296e10dcc1341713735ba4791ed91e3fe76b363", 0),
    "solve nt men int_0_9_3.json": ("3db0a2e27a6e3d67ff7156be42cf34b3300868e3f043f6bcd2e4d1e011b5ac61", 0),
    "solve nt women int_0_9_3.json": ("824dc5b9f30f69a99e05bc9f79adef4223ac26e50fca25a46b4a2185b5c07af5", 0),
    "solve ft int_0_9_3.json": ("4243a6e30ae1dc96b200061f69db79561b02d1677f55f4ceba928b55019823dd", 0),
    "check da_men_int_0_9_3.json p=0.0 q=0.0": ("3af3f7c9f7044a612987c6be4fbe67b9366bba91b24d7ebde5cb67bffb60a04b", 0),
    "check da_men_int_0_9_3.json p=0.5 q=0.5": ("033ede61b5e15dd4bfe7f974d5d6e4dd92457017a21cc67c740e04206c3edb71", 0),
    "check da_men_int_0_9_3.json p=1.0 q=1.0": ("b39d92be8439a6f276c126d4d6c0f82f2bdc29be9e4b2654e1bcd3a3f687b304", 0),
    "check da_men_int_0_9_3.json p=0.0 q=1.0": ("2f9566235d553e2e1085699eee033b44f82c4f96a8457fe52851b56725364232", 1),
    "check da_men_int_0_9_3.json p=1.0 q=0.0": ("dbd27b46421627d4c1f672eae2026b7d6c96d408051d40a3735ee5ab13c0efd5", 0),
    "core fnt da_men_int_0_9_3.json": ("030b6b94f134a90ec42c4297d06e8a4af151b9552147b6c6b30aadc5b3f0c835", 0),
    "core ft da_men_int_0_9_3.json": ("126a4ebc2da41712d52489974a320c5edbbe6a96335a840ce4a2d21e55a2df5a", 0),
    "core ft_nonneg da_men_int_0_9_3.json": ("a7b2f2bf051f6ce80bb9634915a06a91a61f5dd27c7b65904ac7c627de9d4369", 0),
    "core ft_m2w da_men_int_0_9_3.json": ("3e86d45fc6d33e508274325e5cc12ce55e91f4ecae82f32d020f8d01b08d404d", 0),
    "core ft_taxed da_men_int_0_9_3.json": ("8b910eac3979110d968abb439ab9aed104f4a486527dfe38546cb657092192a0", 0),
    "check identity_int_0_9_3.json p=0.0 q=0.0": ("1266b039cc97d1658d25660a5ae9f78147121bd0022391effa35e5e8bf226107", 1),
    "check identity_int_0_9_3.json p=0.5 q=0.5": ("2a5fa2e811b9707956263b9c584db241f3fa8fdd0fcbec0080e556e56c2e29c8", 1),
    "check identity_int_0_9_3.json p=1.0 q=1.0": ("10c23da3942069bf4fd9285d81884c7dd8cffe78914b476e2cf44a72c3cc3037", 1),
    "check identity_int_0_9_3.json p=0.0 q=1.0": ("37b474099e360fa4d41e5fcca770636c7d2844bd5c321534feec100bff6329f5", 1),
    "check identity_int_0_9_3.json p=1.0 q=0.0": ("6b5cdb9058f9b79a6d7245a71789cc87e593fa99623d809af5b453196e28b341", 1),
    "core fnt identity_int_0_9_3.json": ("c90e378e8ef5de23f1b7cb298ba3e9ce3f397c9f6c7004247aa3b2b1f3203757", 1),
    "core ft identity_int_0_9_3.json": ("bc344ade27f18c616bab4c7dc53041038ddc0962e825b9332cfe9e3778ede332", 1),
    "core ft_nonneg identity_int_0_9_3.json": ("8517848ed1452d0f5310f4de90695ce4c5fb99ee0a8a444859bb81e99cb55b98", 1),
    "core ft_m2w identity_int_0_9_3.json": ("d2848cee2ce9d0fd9de7a6385ab324bf3b803547b549c33098a5fad0f0b41e43", 1),
    "core ft_taxed identity_int_0_9_3.json": ("60d7d9cd7ba57d0b5da3cb7bb325a34df30dc44aeace7b20a0b25fa6efbcc0a2", 1),
    "gen int:0:9 n=5": ("73f09536921ceb96afc9ad11f5bfc783633ba4a896a12831f24327bc41603c52", 0),
    "solve nt men int_0_9_5.json": ("b6162a36c075a65087ad7f08ae797f9f10980ec162beb6c4bba071ddba8bd5f8", 0),
    "solve nt women int_0_9_5.json": ("0f419aeefa34e9278ec227d7ff66b7bb4b0aa8337bd0c835731edba4115a8396", 0),
    "solve ft int_0_9_5.json": ("97dbb5b36ad77038132f6c5fc2ee3402abc315f093742b5db31df4eeaee1762e", 0),
    "check da_men_int_0_9_5.json p=0.0 q=0.0": ("bbaa36ec5809a46cad7f9fd99c2bb6525ae2a26dc461024bc6082ed69e5f3c91", 0),
    "check da_men_int_0_9_5.json p=0.5 q=0.5": ("c355e2ea1872cae7974c730794e4b4ae6698c65aaa9092c5193ba1aac6a496d5", 0),
    "check da_men_int_0_9_5.json p=1.0 q=1.0": ("3d2e0cafd0a7bba4a03d82be83757a877e8d60d819fba6eb86a7649301f9193d", 0),
    "check da_men_int_0_9_5.json p=0.0 q=1.0": ("56963a48a6e8f0a69bb33f32e02c8322aabf41b245b773184b8592d86c1c16ca", 1),
    "check da_men_int_0_9_5.json p=1.0 q=0.0": ("acc0742af3f1de92fc0712672d888a5308fa09e575bc5a4815c7b856270e3803", 0),
    "core fnt da_men_int_0_9_5.json": ("befd42f12960dac186c8ff099f7d1742947bc01ad759d982ca7fa6787a1a3e42", 0),
    "core ft da_men_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg da_men_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w da_men_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed da_men_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "check identity_int_0_9_5.json p=0.0 q=0.0": ("14f37cc5b78725baa0241ba91ac2ac9bcc186b92ffeff0f15e122742ea3695dd", 1),
    "check identity_int_0_9_5.json p=0.5 q=0.5": ("c71d323845c62ac9a63eb2e96a2ff2b775ea6c8c50ef2c48f9169fd75a57e39c", 1),
    "check identity_int_0_9_5.json p=1.0 q=1.0": ("16b591f55666c6d3c7f6a69971b174c0df26b79f0108b63b07d14c001ae814fe", 1),
    "check identity_int_0_9_5.json p=0.0 q=1.0": ("08f2a4e07e1068ec4cb670b4cf908180366747dd1fd5628cab91dd1582485120", 1),
    "check identity_int_0_9_5.json p=1.0 q=0.0": ("6cb7633d0b0d93e887ee43d05e8745e91b1223571ba415f063618e90920f6334", 0),
    "core fnt identity_int_0_9_5.json": ("6025980c18ff733249c2b8295427f34c512a32730f2b8fb9bc8ad3566e7e2a7b", 1),
    "core ft identity_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg identity_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w identity_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed identity_int_0_9_5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "gen int:0:9 n=40": ("68e8e0def6199f46012880c12e5af1bd82d00a0dd795f483582b077e0c7240d2", 0),
    "solve nt men int_0_9_40.json": ("c35f4825b6450d84e4c4ba169e6b8d1673f90b4e77f3863753755f5278a44a46", 0),
    "solve nt women int_0_9_40.json": ("1075f353d4c8875d0d6eb964db1db40256150a140ea51ec4c67e2aaca999ddb2", 0),
    "solve ft int_0_9_40.json": ("9dcfd4a48b0cf587ac90d495af2c0ffc748316ac7fa3c1ab0becc927c8bf519d", 0),
    "check da_men_int_0_9_40.json p=0.0 q=0.0": ("fc923b255395257e6a1d81a3c11db7ad15cb9942a6d98ddcf7da6888c4673bae", 0),
    "check da_men_int_0_9_40.json p=0.5 q=0.5": ("1055218db29205deff0a06f03bb23feac4341b168113a1fa1771e8cf9f53ed2d", 1),
    "check da_men_int_0_9_40.json p=1.0 q=1.0": ("eb3198be0baee0f719cfc39c3d1dafb30a8be62e2428f3cf0fbbdc4acd6d2637", 1),
    "check da_men_int_0_9_40.json p=0.0 q=1.0": ("bef49d16419c077132d8d5f2b5d44ae86db8a20b6fbdad1356c7bbb119cef084", 1),
    "check da_men_int_0_9_40.json p=1.0 q=0.0": ("f72ec6f098d989574ef94ab241a023bd0caf0a96c5c189c4bf1f78233f89cd13", 0),
    "core fnt da_men_int_0_9_40.json": ("6f53f04696b5e3e72bb89fe9c99c0cddfa611abc6c46044db996b29e816ac025", 0),
    "core ft da_men_int_0_9_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_nonneg da_men_int_0_9_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_m2w da_men_int_0_9_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "core ft_taxed da_men_int_0_9_40.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "counterexample p=0.2 q=0.8": ("dc969e9aac698f0bee0108203d60ec4a843e4cd791cc866176e2e07fd02c79d7", 0),
    "counterexample p=0.0 q=1.0": ("d20fce2866044965799c99778ada5e3397a18cd23001bbaf872cd1066a82853a", 0),
    "counterexample p=0.5 q=0.5": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "counterexample p=0.8 q=0.2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "sweep seed=0": ("2192cf9d27b2bc9d04b92397294fc9e0d880fb82205944e1383e0c46c7e3e1fc", 0),
    "sweep seed=1": ("2192cf9d27b2bc9d04b92397294fc9e0d880fb82205944e1383e0c46c7e3e1fc", 0),
    "gen uniform01 n=300": ("9b246950d52b843809213e6d7ee2dec74795cd3e5dd85a65222c01989384c637", 0),
    "gen int:0:9 n=300": ("ac539933a9b2040d08df7fbba97e4b34a6e1caaf930bef37fe88c2feb24b9132", 0),
    "sweep defaults seed=1": ("f49f98047280aa78604a00bde7341c2e0e8f5df4ebf364b6e9db25e306ae5e4a", 0),
}


def test_cli_output_matches_the_recorded_table(tmp_path):
    table = record(tmp_path)
    assert list(table) == list(GOLDEN)
    changed = [label for label in GOLDEN if table[label] != GOLDEN[label]]
    assert not changed, f"stdout or exit code changed: {changed}"
