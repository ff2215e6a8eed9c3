"""Every output of the benchmark's fixed checks and of criterion 7, pinned.

Each check's report, serialised as JSON with sorted keys, is hashed with
SHA-256 and compared with the table below: values, witnesses, modes,
``upper`` and ``pairs_examined`` included.  A change that moves an output on
purpose re-pins the table (``python tests/test_engine_digests.py`` prints it)
and says which outputs moved and why.  The floats, and so the digests, are
those of Python 3.11 and numpy 2.4.6, as in ``test_pairs.test_outcomes_are_pinned``.
"""

import hashlib
import importlib.util
import json
import os
import sys
from unittest import mock

from holonorm import check
from test_acceptance import ELLIPTIC_VARIANTS, FIXTURES, PARABOLIC_VARIANTS, _spec_for, expr_grid
from test_bench_contract import PERFBENCH, checks

# the harness's workloads, loaded read-only from their file; its dataclasses
# need the module registered, and its ``import checks`` gets the harness's
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               os.path.join(PERFBENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
with mock.patch.dict(sys.modules, {"checks": checks, _spec.name: workloads}):
    _spec.loader.exec_module(workloads)


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


def _fixed_checks():
    """(key, report) of each fixed check of the benchmark's two workloads."""
    for name in ("matrix-1d", "sweep-2d"):
        for key, spec, make in workloads.reference_inputs(name):
            yield f"{name}/{key}", check(spec, make())


def _criterion_7_checks():
    """(key, report) of each check of the acceptance suite's criterion 7."""
    for n, resolutions in ((1, (64, 128, 256)), (2, (32, 64))):
        for name, pexpr, eexpr, l1, l_mid, l2 in FIXTURES[n]:
            for variant in PARABOLIC_VARIANTS + ELLIPTIC_VARIANTS:
                elliptic = variant in ELLIPTIC_VARIANTS
                spec = _spec_for(variant, n, l1, l_mid, l2)
                for steps in resolutions:
                    u = expr_grid(eexpr if elliptic else pexpr, n, steps,
                                  0 if elliptic else steps, 0.0 if elliptic else 1.0)
                    yield f"criterion-7/{n}d/{name}/{variant}/res{steps}", check(spec, u)


def _assert_pinned(reports, pinned):
    got = {key: _digest(rep) for key, rep in reports}
    moved = sorted(key for key in got.keys() | pinned.keys() if got.get(key) != pinned.get(key))
    assert not moved, f"{len(moved)} of {len(pinned)} checks moved: {moved}"


def test_fixed_checks_are_pinned():
    _assert_pinned(_fixed_checks(), FIXED)


def test_criterion_7_checks_are_pinned():
    _assert_pinned(_criterion_7_checks(), CRITERION_7)


FIXED = {
    "matrix-1d/smooth/res64/2.2": "1c35af759cf14ed2899266fd848498f1e22019be65f4865476919a66bcd4942c",
    "matrix-1d/smooth/res64/2.3.1": "2785bf9598ae228a351eda541c77505745ebac4c7b8f17487ab95f46d6a586fb",
    "matrix-1d/smooth/res64/2.3.3": "daaaacb648fd70a519f040fb1f8419bc37daf7af0413fb9dce1f2a23e3c847cf",
    "matrix-1d/smooth/res64/2.10": "549e5e4d24fac186e332629c8dd961012ec1042a20e1199e1c72fb7621a00213",
    "matrix-1d/smooth/res64/2.10.1": "54d1b36073478a01ada317b80ddbf21d0990fcbed42a56a92153f8e476c34096",
    "matrix-1d/smooth/res64/2.1": "783cb44e5f7d0a30588f828b057189bc4f1d58ca4325900a5b266f4d4c8b541f",
    "matrix-1d/smooth/res64/2.11": "1565bf77f389b6717f1b1158c475b8bd7671e42e350887414fff2406a3d7f809",
    "matrix-1d/smooth/res128/2.2": "abdee3ad26d34a0703542f6220c4dcff1a90ff72ae08c1e5936e1753747f6ae6",
    "matrix-1d/smooth/res128/2.3.1": "e98d41f0e37fe11aa9f85b585b6d566b128e8bf6bc0bcb7dd065922534e492ac",
    "matrix-1d/smooth/res128/2.3.3": "b64d9a881fc369f1fa7287a239e65d5366b04a36bb4565169149279fd7a7cef2",
    "matrix-1d/smooth/res128/2.10": "51d751b8cbb0500ec8be4a83e9240d6fe1025ef818f90742e017f8e2a3ce9417",
    "matrix-1d/smooth/res128/2.10.1": "1f8ebe72dbd5a6a85829b721f0f32eaaa6b7de2671858840db1e1f0b760210d2",
    "matrix-1d/smooth/res128/2.1": "4fd4aa454a808cf1d78148fd52f47a747eb69bdf8bedafbc29c3636bd5ef497c",
    "matrix-1d/smooth/res128/2.11": "34591c8cc02eea321ee23443f369b9c13b340e25bfcfa59e106a37021e45e8e2",
    "matrix-1d/smooth/res256/2.2": "4d011b8181445983a157066b9ed487545ec883b76adfcf72c06ee437af822269",
    "matrix-1d/smooth/res256/2.3.1": "55dbe8ea66193e9f4a535401a9bf4646795f51e259116528d4d06226e29383fa",
    "matrix-1d/smooth/res256/2.3.3": "0c2e32e1a1f4ccdd183a3145ada67523631e0cfd647f05d9a7c9f248bbaedb70",
    "matrix-1d/smooth/res256/2.10": "73249f01e56788e2fd3e0e5c6b5248e230717f2d8b2466933d4de7d00e217daa",
    "matrix-1d/smooth/res256/2.10.1": "a8f3c3e3ceb9fb686ebbe510772f1c3674505a5848d446c482d338882d6eb2db",
    "matrix-1d/smooth/res256/2.1": "8ca1f9bc751ef9201b954bb1f9dc1e93e263093dfa06914c593c56d8147584d0",
    "matrix-1d/smooth/res256/2.11": "e01dd71499e8444af8d69f0965e0f05361cee593800791ab449841162400e6ae",
    "matrix-1d/cusp/res64/2.2": "9f6c1aa1f037413e51e0548548e9ec2760a6eebdb75bbabfe1ce4c77057f1382",
    "matrix-1d/cusp/res64/2.3.1": "27192604a413a859934d821994a45811a3944e2b8b7faaae225d659f2513a1d3",
    "matrix-1d/cusp/res64/2.3.3": "ba5a5977b4da4a1dab41d42bad06228f9e188569c9616778bdd51d5613017594",
    "matrix-1d/cusp/res64/2.10": "202741601632f04e9f1f3f695eaba6ca2dc2a106132f7826bdd8cdf7fff4c9a8",
    "matrix-1d/cusp/res64/2.10.1": "f81a16915ebbf77887577ebed9fc093dc01714a24e61a6cd9e8c3da2d520f73d",
    "matrix-1d/cusp/res64/2.1": "279d3965b233d2e6be6bb979e20daa891def38ffc0fd8938514d0b9e085a44b8",
    "matrix-1d/cusp/res64/2.11": "2c6d3aaf19a55f61ab2b28b782db87b964e768e92c1ed68d253af15cfcc9d76b",
    "matrix-1d/cusp/res128/2.2": "536e88264a4b66e51bfac17a4ebf6de29bb803c7a94d965fa5e6b52ca8d10bb0",
    "matrix-1d/cusp/res128/2.3.1": "583a57362e12908889968ee54ae4b57fc504982a1526a88e16c2e4a71ee1d944",
    "matrix-1d/cusp/res128/2.3.3": "408cc876d9165bebaf23afd796f028ca99e4c6278b68dc7cc6ac2c76c67a087e",
    "matrix-1d/cusp/res128/2.10": "523287d78aaefc74eeaeaa4918bcb0f46b371fd43810cc0a7029c0e7b8960e20",
    "matrix-1d/cusp/res128/2.10.1": "35faaa6fce378404b2d672db13991c13ba93d287d48352c28f654039ca758a7a",
    "matrix-1d/cusp/res128/2.1": "6978dc2764ace9a502d2f4d8cdc646f8ff4b1f1b59cd5cf8ae4601c32cb215f1",
    "matrix-1d/cusp/res128/2.11": "d8c6a7c156bfde9801fd27b1b95da294cbb7dad875d91cbbf86ec63780ac5d2f",
    "matrix-1d/cusp/res256/2.2": "e7f0fbd170993d4041a4a09aa5ac48ffe3006534641bf8a589635b2b6175f188",
    "matrix-1d/cusp/res256/2.3.1": "23fb4af0ab299c024394af8476a045540ea4c528d846adcb0ca95c8fa913bb33",
    "matrix-1d/cusp/res256/2.3.3": "9e60df5d5d9e48daee346527b94a0c4b409b2f0c0c705e7cc65b34e9817235d2",
    "matrix-1d/cusp/res256/2.10": "f5189b76a5fa1db9788552ed09642424d9229b86434bd50b8ab5bd7eeac90602",
    "matrix-1d/cusp/res256/2.10.1": "16ba5ebf759d852b2a4020035a7e69ef78da6a506b9429b5dc151b4d81cc551a",
    "matrix-1d/cusp/res256/2.1": "695f7487efc604695d874059a43315872d24ef627cc5bd23b8ef26ca9e1fa3ff",
    "matrix-1d/cusp/res256/2.11": "c997fa017fdff07c11c62a5e75659e7ea8056425ff514cee206ec0538de0bb82",
    "matrix-1d/bump/res64/2.2": "21b27725d2fa657e8b5435748a577b3603083ae3cb21da03b43e669644a24659",
    "matrix-1d/bump/res64/2.3.1": "16ce040a11d4c8a19d30c5a9cb5bad2023aa45d6b3379b5d6a0a284392c62219",
    "matrix-1d/bump/res64/2.3.3": "e5c57d3a2e700d4e5da9133fe9fe9b6206eac871a8a6ce4b753ab7e8e164738d",
    "matrix-1d/bump/res64/2.10": "c21bec90fde883fa0f231b1b0c6bdf2571983f007b3208780b362c55e60a4e7e",
    "matrix-1d/bump/res64/2.10.1": "2bcd0f73b4a81ab42e8bad5953bdf0052f667994779bb32241d5f4ef2bae7a84",
    "matrix-1d/bump/res64/2.1": "3fc43ad6b040a51dc53b46ecafdd9bbf837081592d4c15b9dc20a0de97bfbb92",
    "matrix-1d/bump/res64/2.11": "3de4a4aaa6cdfac60a9f7cdc92200ae2acb8cab1d23c3fddf4517d12d6986d3d",
    "matrix-1d/bump/res128/2.2": "4b3f4d2da4322545809530d3a0481a565bc10aba29e480aa38254b7be542e6e7",
    "matrix-1d/bump/res128/2.3.1": "ac84e82e4a3173508006fc13b17dcff43180ad0adad6d5214d09610d62fa5e6c",
    "matrix-1d/bump/res128/2.3.3": "89e9e0ba26d5b7df4b10d02e4602afad5ad799f124a20ff7130163010ec5d3b4",
    "matrix-1d/bump/res128/2.10": "607ab774a99bcc93a11e5bda4098678b1d7dc8b8fb34805913d440fcbc22cd6b",
    "matrix-1d/bump/res128/2.10.1": "7f15dab76ab71d00d68f42b6f9b47a79a651f1f8aa26337cb4e432492880bbf7",
    "matrix-1d/bump/res128/2.1": "722e2ff2bbd773725497bc8559d5dec8cd2c43425cba6094b2352f9e605d7c6e",
    "matrix-1d/bump/res128/2.11": "779ae9ce71a3fe3b10d8a5e4b8e858284bac06df7a4d7b0567f139d289c45d1e",
    "matrix-1d/bump/res256/2.2": "1aee48514c2a676603a0e596c106cce41cbc31585937c67228b5a6ce631f998e",
    "matrix-1d/bump/res256/2.3.1": "23a37f72c0d7d4d3031db01c7ffaf4efd2c9c61be0460a4ef00cce2d8b063c62",
    "matrix-1d/bump/res256/2.3.3": "f29ee2582d01025751f3b6a995d04bdab1ff610d10a6e0679b52f48297f568f0",
    "matrix-1d/bump/res256/2.10": "d55a1397f83274c9651854143ec3d4a4092b3a97e0c82702024c8c914fcfbb2e",
    "matrix-1d/bump/res256/2.10.1": "7237da6a6e9416e87dc70316f775507a7bf41aefd50e57cdd9cc11392649345d",
    "matrix-1d/bump/res256/2.1": "f956063d28916e80f7318c83180861ee366ce1d32b3e34741eb04a282b2025f9",
    "matrix-1d/bump/res256/2.11": "0ce670d2df400ed321face5694f8c0e8861f8d7ee1c0455b7f6d778dea7c4520",
    "sweep-2d/smooth/2.2/res16": "997ff044cd38e72b8d3451774bb5a2289c0eeae3fd068bde72a583f66a953ee7",
    "sweep-2d/smooth/2.2/res32": "31bb76d8ae7fbdecbf0a7277c3ee837fa649904b20b62e4581d668733e809a0f",
    "sweep-2d/smooth/2.3.1/res16": "b805abf670c8cf230e20809001c8a05df60217d3ee78b161c1837f0a82f39dbc",
    "sweep-2d/smooth/2.3.1/res32": "62a24e5d99f345fc8ecdb79dde1d6df5e69a5b58e72b4672b7a555283cab5987",
    "sweep-2d/smooth/2.3.3/res16": "879ff9d29d250bdff1fa4954aab7cc66c2179c4fc9cdfdee90d57663d2c44bd8",
    "sweep-2d/smooth/2.3.3/res32": "67551823029a727f48916c110013d8623107f45baac516a7b3b5ebbe569776ea",
    "sweep-2d/smooth/2.10/res16": "61bc06297a62be9bc5850296796373980bcd8c13ba8a0c8ed598138dcfe80800",
    "sweep-2d/smooth/2.10/res32": "206016dd458628b8657762043aaff9263da674dcb79a29e02674bab28835ab4f",
    "sweep-2d/smooth/2.10.1/res16": "b394719e556d35cfa26d99a2e3f4ca61a216c2aa2e8e2c397ff1034118a6544a",
    "sweep-2d/smooth/2.10.1/res32": "605c7f89f0d6bb5f744cc167f159ca2d35f611be19b29892f1f0e147839b7eca",
    "sweep-2d/smooth/2.1/res16": "b38507155a7f5bfa9365f257518564ec956270c4028ab9e16d1c8229eacfb3c5",
    "sweep-2d/smooth/2.1/res32": "fe4d571037d1be8313543d5661da6706f8b38ffa205d3b3cdb000b6c72b2be9b",
    "sweep-2d/smooth/2.11/res16": "cf1fb19efba9087ffa979acd9ff3686d2b766bb7966d5132a26ef1229d9f9a83",
    "sweep-2d/smooth/2.11/res32": "15a742f5e3bf19bf5b833fe25dec395670f460070f480dfe5256f95481fc7d84",
    "sweep-2d/cusp/2.2/res16": "b9d024189ce5f8b520b04ff7a92875ea34e2f42ccf0fc03b5019480ed5fa3b3a",
    "sweep-2d/cusp/2.2/res32": "6ce2fa4f3906306833fce8fddf0554bfc06936e0b8b0d209995af8904f577e53",
    "sweep-2d/cusp/2.3.1/res16": "2c3a35902e0cf4bd6375f54bcda02fd54f304783a50e66eace9f90a17c8b4ef0",
    "sweep-2d/cusp/2.3.1/res32": "515e3529bd95865d19867858d76c4fe4bf2a88002d58af2c91b7eee9daf80de1",
    "sweep-2d/cusp/2.3.3/res16": "3df4e4128d870d9ecbb09b29657c02ed8671345dd53b2534ab3ff7aaf7e5d1b1",
    "sweep-2d/cusp/2.3.3/res32": "d711e1bb343c344bc53b345e79266a0f2aace172148052edea08e185b4afb3f6",
    "sweep-2d/cusp/2.10/res16": "24d77f84dfb9734d27df88aa1ccb11c65f672d3b623d7acfa1596990580aeef1",
    "sweep-2d/cusp/2.10/res32": "0697f20364522c2eb25da407c4ad0ff692246ae146329a48d385b2106766a2ee",
    "sweep-2d/cusp/2.10.1/res16": "df906de000c1c63d7d5dee1b9c26689ec80f3cb431bc79fd9e74411e46b0322f",
    "sweep-2d/cusp/2.10.1/res32": "87ad0c87a422e8faa9da4e450953e43c3cbd65a908212464c2afa30195dc9c3c",
    "sweep-2d/cusp/2.1/res16": "ed69e80771cd5c63a5a3ed25c73b879fe4912c957bafc279c4eacd9f7c38d500",
    "sweep-2d/cusp/2.1/res32": "876e72e6a6d10139b7d335014af1a39bf47b3188af3d9f6aaaf24ee2c081e557",
    "sweep-2d/cusp/2.11/res16": "56e6e1ca3310a6729fd245b614808913b59c74921a471b8762accf0a1b2d5918",
    "sweep-2d/cusp/2.11/res32": "40f0d5b8ac4f836245c963d7e4fb6590932366219c8f2e63ed3a6e0f49d3ade8",
}

CRITERION_7 = {
    "criterion-7/1d/smooth/2.2/res64": "1c35af759cf14ed2899266fd848498f1e22019be65f4865476919a66bcd4942c",
    "criterion-7/1d/smooth/2.2/res128": "abdee3ad26d34a0703542f6220c4dcff1a90ff72ae08c1e5936e1753747f6ae6",
    "criterion-7/1d/smooth/2.2/res256": "4d011b8181445983a157066b9ed487545ec883b76adfcf72c06ee437af822269",
    "criterion-7/1d/smooth/2.3.1/res64": "2785bf9598ae228a351eda541c77505745ebac4c7b8f17487ab95f46d6a586fb",
    "criterion-7/1d/smooth/2.3.1/res128": "e98d41f0e37fe11aa9f85b585b6d566b128e8bf6bc0bcb7dd065922534e492ac",
    "criterion-7/1d/smooth/2.3.1/res256": "55dbe8ea66193e9f4a535401a9bf4646795f51e259116528d4d06226e29383fa",
    "criterion-7/1d/smooth/2.3.3/res64": "daaaacb648fd70a519f040fb1f8419bc37daf7af0413fb9dce1f2a23e3c847cf",
    "criterion-7/1d/smooth/2.3.3/res128": "b64d9a881fc369f1fa7287a239e65d5366b04a36bb4565169149279fd7a7cef2",
    "criterion-7/1d/smooth/2.3.3/res256": "0c2e32e1a1f4ccdd183a3145ada67523631e0cfd647f05d9a7c9f248bbaedb70",
    "criterion-7/1d/smooth/2.10/res64": "549e5e4d24fac186e332629c8dd961012ec1042a20e1199e1c72fb7621a00213",
    "criterion-7/1d/smooth/2.10/res128": "51d751b8cbb0500ec8be4a83e9240d6fe1025ef818f90742e017f8e2a3ce9417",
    "criterion-7/1d/smooth/2.10/res256": "73249f01e56788e2fd3e0e5c6b5248e230717f2d8b2466933d4de7d00e217daa",
    "criterion-7/1d/smooth/2.10.1/res64": "54d1b36073478a01ada317b80ddbf21d0990fcbed42a56a92153f8e476c34096",
    "criterion-7/1d/smooth/2.10.1/res128": "1f8ebe72dbd5a6a85829b721f0f32eaaa6b7de2671858840db1e1f0b760210d2",
    "criterion-7/1d/smooth/2.10.1/res256": "a8f3c3e3ceb9fb686ebbe510772f1c3674505a5848d446c482d338882d6eb2db",
    "criterion-7/1d/smooth/2.1/res64": "783cb44e5f7d0a30588f828b057189bc4f1d58ca4325900a5b266f4d4c8b541f",
    "criterion-7/1d/smooth/2.1/res128": "4fd4aa454a808cf1d78148fd52f47a747eb69bdf8bedafbc29c3636bd5ef497c",
    "criterion-7/1d/smooth/2.1/res256": "8ca1f9bc751ef9201b954bb1f9dc1e93e263093dfa06914c593c56d8147584d0",
    "criterion-7/1d/smooth/2.11/res64": "1565bf77f389b6717f1b1158c475b8bd7671e42e350887414fff2406a3d7f809",
    "criterion-7/1d/smooth/2.11/res128": "34591c8cc02eea321ee23443f369b9c13b340e25bfcfa59e106a37021e45e8e2",
    "criterion-7/1d/smooth/2.11/res256": "e01dd71499e8444af8d69f0965e0f05361cee593800791ab449841162400e6ae",
    "criterion-7/1d/cusp/2.2/res64": "9f6c1aa1f037413e51e0548548e9ec2760a6eebdb75bbabfe1ce4c77057f1382",
    "criterion-7/1d/cusp/2.2/res128": "536e88264a4b66e51bfac17a4ebf6de29bb803c7a94d965fa5e6b52ca8d10bb0",
    "criterion-7/1d/cusp/2.2/res256": "e7f0fbd170993d4041a4a09aa5ac48ffe3006534641bf8a589635b2b6175f188",
    "criterion-7/1d/cusp/2.3.1/res64": "27192604a413a859934d821994a45811a3944e2b8b7faaae225d659f2513a1d3",
    "criterion-7/1d/cusp/2.3.1/res128": "583a57362e12908889968ee54ae4b57fc504982a1526a88e16c2e4a71ee1d944",
    "criterion-7/1d/cusp/2.3.1/res256": "23fb4af0ab299c024394af8476a045540ea4c528d846adcb0ca95c8fa913bb33",
    "criterion-7/1d/cusp/2.3.3/res64": "ba5a5977b4da4a1dab41d42bad06228f9e188569c9616778bdd51d5613017594",
    "criterion-7/1d/cusp/2.3.3/res128": "408cc876d9165bebaf23afd796f028ca99e4c6278b68dc7cc6ac2c76c67a087e",
    "criterion-7/1d/cusp/2.3.3/res256": "9e60df5d5d9e48daee346527b94a0c4b409b2f0c0c705e7cc65b34e9817235d2",
    "criterion-7/1d/cusp/2.10/res64": "202741601632f04e9f1f3f695eaba6ca2dc2a106132f7826bdd8cdf7fff4c9a8",
    "criterion-7/1d/cusp/2.10/res128": "523287d78aaefc74eeaeaa4918bcb0f46b371fd43810cc0a7029c0e7b8960e20",
    "criterion-7/1d/cusp/2.10/res256": "f5189b76a5fa1db9788552ed09642424d9229b86434bd50b8ab5bd7eeac90602",
    "criterion-7/1d/cusp/2.10.1/res64": "f81a16915ebbf77887577ebed9fc093dc01714a24e61a6cd9e8c3da2d520f73d",
    "criterion-7/1d/cusp/2.10.1/res128": "35faaa6fce378404b2d672db13991c13ba93d287d48352c28f654039ca758a7a",
    "criterion-7/1d/cusp/2.10.1/res256": "16ba5ebf759d852b2a4020035a7e69ef78da6a506b9429b5dc151b4d81cc551a",
    "criterion-7/1d/cusp/2.1/res64": "279d3965b233d2e6be6bb979e20daa891def38ffc0fd8938514d0b9e085a44b8",
    "criterion-7/1d/cusp/2.1/res128": "6978dc2764ace9a502d2f4d8cdc646f8ff4b1f1b59cd5cf8ae4601c32cb215f1",
    "criterion-7/1d/cusp/2.1/res256": "695f7487efc604695d874059a43315872d24ef627cc5bd23b8ef26ca9e1fa3ff",
    "criterion-7/1d/cusp/2.11/res64": "2c6d3aaf19a55f61ab2b28b782db87b964e768e92c1ed68d253af15cfcc9d76b",
    "criterion-7/1d/cusp/2.11/res128": "d8c6a7c156bfde9801fd27b1b95da294cbb7dad875d91cbbf86ec63780ac5d2f",
    "criterion-7/1d/cusp/2.11/res256": "c997fa017fdff07c11c62a5e75659e7ea8056425ff514cee206ec0538de0bb82",
    "criterion-7/1d/bump/2.2/res64": "21b27725d2fa657e8b5435748a577b3603083ae3cb21da03b43e669644a24659",
    "criterion-7/1d/bump/2.2/res128": "4b3f4d2da4322545809530d3a0481a565bc10aba29e480aa38254b7be542e6e7",
    "criterion-7/1d/bump/2.2/res256": "1aee48514c2a676603a0e596c106cce41cbc31585937c67228b5a6ce631f998e",
    "criterion-7/1d/bump/2.3.1/res64": "16ce040a11d4c8a19d30c5a9cb5bad2023aa45d6b3379b5d6a0a284392c62219",
    "criterion-7/1d/bump/2.3.1/res128": "ac84e82e4a3173508006fc13b17dcff43180ad0adad6d5214d09610d62fa5e6c",
    "criterion-7/1d/bump/2.3.1/res256": "23a37f72c0d7d4d3031db01c7ffaf4efd2c9c61be0460a4ef00cce2d8b063c62",
    "criterion-7/1d/bump/2.3.3/res64": "e5c57d3a2e700d4e5da9133fe9fe9b6206eac871a8a6ce4b753ab7e8e164738d",
    "criterion-7/1d/bump/2.3.3/res128": "89e9e0ba26d5b7df4b10d02e4602afad5ad799f124a20ff7130163010ec5d3b4",
    "criterion-7/1d/bump/2.3.3/res256": "f29ee2582d01025751f3b6a995d04bdab1ff610d10a6e0679b52f48297f568f0",
    "criterion-7/1d/bump/2.10/res64": "c21bec90fde883fa0f231b1b0c6bdf2571983f007b3208780b362c55e60a4e7e",
    "criterion-7/1d/bump/2.10/res128": "607ab774a99bcc93a11e5bda4098678b1d7dc8b8fb34805913d440fcbc22cd6b",
    "criterion-7/1d/bump/2.10/res256": "d55a1397f83274c9651854143ec3d4a4092b3a97e0c82702024c8c914fcfbb2e",
    "criterion-7/1d/bump/2.10.1/res64": "2bcd0f73b4a81ab42e8bad5953bdf0052f667994779bb32241d5f4ef2bae7a84",
    "criterion-7/1d/bump/2.10.1/res128": "7f15dab76ab71d00d68f42b6f9b47a79a651f1f8aa26337cb4e432492880bbf7",
    "criterion-7/1d/bump/2.10.1/res256": "7237da6a6e9416e87dc70316f775507a7bf41aefd50e57cdd9cc11392649345d",
    "criterion-7/1d/bump/2.1/res64": "3fc43ad6b040a51dc53b46ecafdd9bbf837081592d4c15b9dc20a0de97bfbb92",
    "criterion-7/1d/bump/2.1/res128": "722e2ff2bbd773725497bc8559d5dec8cd2c43425cba6094b2352f9e605d7c6e",
    "criterion-7/1d/bump/2.1/res256": "f956063d28916e80f7318c83180861ee366ce1d32b3e34741eb04a282b2025f9",
    "criterion-7/1d/bump/2.11/res64": "3de4a4aaa6cdfac60a9f7cdc92200ae2acb8cab1d23c3fddf4517d12d6986d3d",
    "criterion-7/1d/bump/2.11/res128": "779ae9ce71a3fe3b10d8a5e4b8e858284bac06df7a4d7b0567f139d289c45d1e",
    "criterion-7/1d/bump/2.11/res256": "0ce670d2df400ed321face5694f8c0e8861f8d7ee1c0455b7f6d778dea7c4520",
    "criterion-7/2d/smooth/2.2/res32": "31bb76d8ae7fbdecbf0a7277c3ee837fa649904b20b62e4581d668733e809a0f",
    "criterion-7/2d/smooth/2.2/res64": "01e6d48e2d997c93aba9d7f3e465d20e65ac6b7433f576fe9a0ffb9d539aa1cf",
    "criterion-7/2d/smooth/2.3.1/res32": "62a24e5d99f345fc8ecdb79dde1d6df5e69a5b58e72b4672b7a555283cab5987",
    "criterion-7/2d/smooth/2.3.1/res64": "431f30582f04710f0f4787fa2b2de33481b78341c5038fa0ababea7a269e54ef",
    "criterion-7/2d/smooth/2.3.3/res32": "67551823029a727f48916c110013d8623107f45baac516a7b3b5ebbe569776ea",
    "criterion-7/2d/smooth/2.3.3/res64": "df05218a26e7502c4cdae8564419ff290ccb368e4519cab69ef777598a1d962e",
    "criterion-7/2d/smooth/2.10/res32": "206016dd458628b8657762043aaff9263da674dcb79a29e02674bab28835ab4f",
    "criterion-7/2d/smooth/2.10/res64": "1c1136dd15e159ba9ea139fad22da47bafef3f021789e29348794eacdf8b33fd",
    "criterion-7/2d/smooth/2.10.1/res32": "605c7f89f0d6bb5f744cc167f159ca2d35f611be19b29892f1f0e147839b7eca",
    "criterion-7/2d/smooth/2.10.1/res64": "4c93396b07fb6e2f2b2c1d42bc4d41196423e771dfeadac814cebd15d3fe6fa1",
    "criterion-7/2d/smooth/2.1/res32": "fe4d571037d1be8313543d5661da6706f8b38ffa205d3b3cdb000b6c72b2be9b",
    "criterion-7/2d/smooth/2.1/res64": "f5a291a319310f8b458dd304fffc59e2de9399596aadfd2f46312c9ccf484282",
    "criterion-7/2d/smooth/2.11/res32": "15a742f5e3bf19bf5b833fe25dec395670f460070f480dfe5256f95481fc7d84",
    "criterion-7/2d/smooth/2.11/res64": "c1e2ac8c736be611c7856495a42c9390c385d932357e9be74b5db9c3578c0202",
    "criterion-7/2d/cusp/2.2/res32": "6ce2fa4f3906306833fce8fddf0554bfc06936e0b8b0d209995af8904f577e53",
    "criterion-7/2d/cusp/2.2/res64": "6350383b30f89fa8860f100feeafc490a1efbfc98808234df311203f722d3716",
    "criterion-7/2d/cusp/2.3.1/res32": "515e3529bd95865d19867858d76c4fe4bf2a88002d58af2c91b7eee9daf80de1",
    "criterion-7/2d/cusp/2.3.1/res64": "d475bc2502a9233556bb3442807f22cb5a5bf8e1409788cfe7349471fb51f614",
    "criterion-7/2d/cusp/2.3.3/res32": "d711e1bb343c344bc53b345e79266a0f2aace172148052edea08e185b4afb3f6",
    "criterion-7/2d/cusp/2.3.3/res64": "fbe488024538a551a78ef12f9e4ba27f215129b46e36c3b8dc5892980d5cb629",
    "criterion-7/2d/cusp/2.10/res32": "0697f20364522c2eb25da407c4ad0ff692246ae146329a48d385b2106766a2ee",
    "criterion-7/2d/cusp/2.10/res64": "3cfb4bd79a0a2623cf1d54926596d852c7f99bfd9e13cab96707ef8528ab6752",
    "criterion-7/2d/cusp/2.10.1/res32": "87ad0c87a422e8faa9da4e450953e43c3cbd65a908212464c2afa30195dc9c3c",
    "criterion-7/2d/cusp/2.10.1/res64": "68958d078211ff63187fb28d579cc096bebc5c51e464a3629cc9889643db5c44",
    "criterion-7/2d/cusp/2.1/res32": "876e72e6a6d10139b7d335014af1a39bf47b3188af3d9f6aaaf24ee2c081e557",
    "criterion-7/2d/cusp/2.1/res64": "53fe225ea0547454cdb15c4e2a073a787531dfcc3f72c361cde8107a5ae032cd",
    "criterion-7/2d/cusp/2.11/res32": "40f0d5b8ac4f836245c963d7e4fb6590932366219c8f2e63ed3a6e0f49d3ade8",
    "criterion-7/2d/cusp/2.11/res64": "3b74c26da17304c29dfdedbd28b056529cc07ddc5223517b9f003d95e17aa52f",
    "criterion-7/2d/bump/2.2/res32": "cfb77675c181c022b51a6e47ff87764bc8fabc168cdf2d9130008f278c2227a5",
    "criterion-7/2d/bump/2.2/res64": "fd3ce07e1ed46b32113084ba93b2e757bf20c519e964627cb09801e3c9a27032",
    "criterion-7/2d/bump/2.3.1/res32": "c6a766471c9a339817daa25075d72381ebed2b09c3239a5f4ededbc58144cbc5",
    "criterion-7/2d/bump/2.3.1/res64": "31b125c5ac70a200cb6b82680392a087b87cd09b0ba3c648f74d7b3eaea660ff",
    "criterion-7/2d/bump/2.3.3/res32": "5f68e789b1e592740d15ba3c4089823f2f0effa77295e80d7026ee44f3584e39",
    "criterion-7/2d/bump/2.3.3/res64": "152d474bb48e8c9ef1b9faaf5735bc3f8f9efaeb5f3662ed23848565517318d8",
    "criterion-7/2d/bump/2.10/res32": "86044c4e189baf651f919d58773b1f4241831f1fb9d0922b4dbf6e7c9836ebc0",
    "criterion-7/2d/bump/2.10/res64": "9af1fdc10423264eef794c7954d20515d1805b16f25e38ac5f8bd52c55ba3c34",
    "criterion-7/2d/bump/2.10.1/res32": "c0b5fb14eb9fbc16e2cecccb4ef1220ddc918638c0ac92fd7a6cf0452c65e223",
    "criterion-7/2d/bump/2.10.1/res64": "55c15296b2ac44b6fe7483c7a03bc0dd9e7d64a025521affa351bb6507874d8a",
    "criterion-7/2d/bump/2.1/res32": "90120d5b7383d9e7d0c6bfdeb3833017fbe76edab87c99c4bb2f7cc3cd68c7c2",
    "criterion-7/2d/bump/2.1/res64": "7c3e43ea66b44de6f00e7f65a2b640083e3994eaa821c0971fc4e5762b37a9ba",
    "criterion-7/2d/bump/2.11/res32": "50560a8fba15b4aa2d7937df7b4c46a0cf109f3b7f50e04002439f554eee1907",
    "criterion-7/2d/bump/2.11/res64": "c67b3662e15a349abf10e39b15cbe2529ebfdca92022a609e2157c2485777d31",
}

if __name__ == "__main__":
    for table, reports in (("FIXED", _fixed_checks()), ("CRITERION_7", _criterion_7_checks())):
        print(f"{table} = {{")
        for key, rep in reports:
            print(f'    "{key}": "{_digest(rep)}",')
        print("}\n")
