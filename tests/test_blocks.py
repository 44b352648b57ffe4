"""The SO(4)-chain solver against frozen output: the SHA-256 of the
canonical JSON of the block record of every coupling with R1,R2 <= 1,
plus the four couplings X x X -> (0,0) with R = 3/2.

The digests were taken from the elimination over the radical field
that the rational solver replaced.  They pin columns, vectors, signs
and every rendered value, and they cover all nine augmented systems
with R1,R2 <= 3/2 (X x X -> (0,0)).

One more digest pins the Racah systems of the same couplings: row
labels, each row's nonzero columns, the augmented row count and the
pivot columns.  It was taken from the dense relation rows that the
sparse ones replaced.
"""

import hashlib
import json

import pytest

from so5racah.exact import Radical
from so5racah.formats import block_record, canonical_json
from so5racah.racah import build_system, solve_isoscalars
from so5racah.so5 import So5Irrep

DIGESTS = {
    ("(0,0)", "(0,0)", "(0,0)"):
        "46160d8e24a8e040cc6cac24ea172abb0e741f54a8d2469ae7df5dadbe1cf940",
    ("(0,0)", "(1/2,0)", "(1/2,0)"):
        "ad8141acb86f9301e2a4f00c534a2ec564aedff52e8a6c3755d2c9d6f9c7781d",
    ("(0,0)", "(1/2,1/2)", "(1/2,1/2)"):
        "513cdfbaf8ba6b48458cc52033620dfad365bde340bd8345ab1ebffab2a91741",
    ("(0,0)", "(1,0)", "(1,0)"):
        "45a3cf6f2f7ecbcc8a8cf47f34ac265b807a7c2581d58630579fff123e1be17f",
    ("(0,0)", "(1,1/2)", "(1,1/2)"):
        "79470ab120d69340c6f938582b57ef5bcb578e1a4941e5403707d91a00c24fe2",
    ("(0,0)", "(1,1)", "(1,1)"):
        "12369296cebfd916ca53c30613a86fd904a42c07ed56297e5cb436f2694af97e",
    ("(1/2,0)", "(0,0)", "(1/2,0)"):
        "59a8628cc64355c37d280cb3d975940b3a5bf489eb16190f92eb3fc7507cf73c",
    ("(1/2,0)", "(1/2,0)", "(0,0)"):
        "eaf00b507e25baeb6a114907e586e3748bc66a005f8b7ffbe208881f5a9cf4cb",
    ("(1/2,0)", "(1/2,0)", "(1/2,1/2)"):
        "7f5064e9cfd3148e2ade758eae6c2ca3b9ad10156a5ab23f6f898ff96ebbaf0d",
    ("(1/2,0)", "(1/2,0)", "(1,0)"):
        "ede681b6fdc0b6a37efd3517b19fa4483c317068a48295f649cea318ddcb4aab",
    ("(1/2,0)", "(1/2,1/2)", "(1/2,0)"):
        "c15bba637c05d99cb72056236039b24382f17e2278e3877aca794e2471b6d2e9",
    ("(1/2,0)", "(1/2,1/2)", "(1,1/2)"):
        "95fb2d741f235df81ae46e0aef1ef9471ee8b8fec1fe30b63729fe97c5662b78",
    ("(1/2,0)", "(1,0)", "(1/2,0)"):
        "5a17b04472cb01fba552251e907475eb970d3627ae6113e772cb84be205bc7f8",
    ("(1/2,0)", "(1,0)", "(1,1/2)"):
        "804cbcf64c1589ffc125ba92bd26a6a011fb7bb9a670b22716aa6014c20265f9",
    ("(1/2,0)", "(1,0)", "(3/2,0)"):
        "9f631e75e040f988e9da16828991bebe94465ca56fe53d94e5c72f7ba178e471",
    ("(1/2,0)", "(1,1/2)", "(1/2,1/2)"):
        "d2542b5e907ab6b93e3efa69a669797493369b6aa3ae2e5407da9649d72ccbc3",
    ("(1/2,0)", "(1,1/2)", "(1,0)"):
        "470933cc32639378e0ba5fe19e0f097d540591ba405725371e993096922a3135",
    ("(1/2,0)", "(1,1/2)", "(1,1)"):
        "3a520bb83392fe6862dd5b101fd932fe01ebb7b05201da3b6922a3ffd8592963",
    ("(1/2,0)", "(1,1/2)", "(3/2,1/2)"):
        "ce7ecede72294b8d20eb727c4a8ee91da7d2bbc11a8e27da0d0470cb7357832c",
    ("(1/2,0)", "(1,1)", "(1,1/2)"):
        "5eb458d178f5a30b8f1a550d894068c3ca98bb48131de417d34742f25c9ec762",
    ("(1/2,0)", "(1,1)", "(3/2,1)"):
        "25885058d96415c6bf5b618621375b7811ea06f03b66c3044c090772dd045bab",
    ("(1/2,1/2)", "(0,0)", "(1/2,1/2)"):
        "3d1982a74f7021f6300b3009f1c721df9e5e5c6321a9e334d7f653a321e78b90",
    ("(1/2,1/2)", "(1/2,0)", "(1/2,0)"):
        "eca8333cb24dbc0fe2c3e8374c2a9d847b3f141ea249b8f3a5f48537eda496f8",
    ("(1/2,1/2)", "(1/2,0)", "(1,1/2)"):
        "e0c0370e3f2a7b11b09e022e0fc6f5eea1ca00c69c582e91a3f3fe4e1b1eed0b",
    ("(1/2,1/2)", "(1/2,1/2)", "(0,0)"):
        "2faaf6e82ebc970541bc5dac057bfdc006847e8db7bd60eeffa6d5c23c337cf9",
    ("(1/2,1/2)", "(1/2,1/2)", "(1,0)"):
        "334fbbbff11eee13d2c7f5eba270d4686b440f12d90f6def4c36e0847d4f9661",
    ("(1/2,1/2)", "(1/2,1/2)", "(1,1)"):
        "00855c186786c76da726cd9d959c9874915d891de434fd5105c141a4a165b7fb",
    ("(1/2,1/2)", "(1,0)", "(1/2,1/2)"):
        "7fd431c573aff6d81aca3b5bc34e21448cfce0475c7a2fc9eeb618a695121421",
    ("(1/2,1/2)", "(1,0)", "(1,0)"):
        "2c17caea026d9eb47a32b0d8280f3bc6583cb1660e59299b673d28e4cc696d96",
    ("(1/2,1/2)", "(1,0)", "(3/2,1/2)"):
        "6ff33b62d3c8eb13616505a5f5eebc49b461f1d9ff2db606f79812c8bd953158",
    ("(1/2,1/2)", "(1,1/2)", "(1/2,0)"):
        "7ccab665e42e442eb6c6eb417549ca8d04b14c87e1fca7b007a11e6e6c3a9c9a",
    ("(1/2,1/2)", "(1,1/2)", "(1,1/2)"):
        "62b70659e1c19b58ef68648f112400d04bc19583f4180992ae28ffb850c210a6",
    ("(1/2,1/2)", "(1,1/2)", "(3/2,0)"):
        "e309228886cdffc4501e8e209722b67de41ffc24fbb5debd9d52b6564563645d",
    ("(1/2,1/2)", "(1,1/2)", "(3/2,1)"):
        "92fd25de43f3b26316e3dc0be817da5698575bef640350f91d40f038bed669bf",
    ("(1/2,1/2)", "(1,1)", "(1/2,1/2)"):
        "f912270bfc04b1edb389359b4a4e2e2b86e9e7ed08079f4be13a9368dcdcf1b3",
    ("(1/2,1/2)", "(1,1)", "(3/2,1/2)"):
        "30a5ec2fbd771ae14865ee9e09297b5b43c584a7422d8c40a4c64787b47a5ffa",
    ("(1/2,1/2)", "(1,1)", "(3/2,3/2)"):
        "cb0969f6f41f037817d283a737fd14c5b58dba8476f8e2019a584956a8149498",
    ("(1,0)", "(0,0)", "(1,0)"):
        "4006e8340297f3d78a4aabc413f7868a5454aae0ef2ab8f510fc68d25591c0d2",
    ("(1,0)", "(1/2,0)", "(1/2,0)"):
        "343d1f7fee4e8bdbfbdc352afbd8e0aed75c2467ebbd4e686ed63096bf03f8d4",
    ("(1,0)", "(1/2,0)", "(1,1/2)"):
        "251d2385d0d01a070d2e47ec18cdb941f84a5e9df48c77776abfdbc8510e7d03",
    ("(1,0)", "(1/2,0)", "(3/2,0)"):
        "33dca2595881f360f8e79723100c03ff5ece0ac1505734dcee7d3717a69022ed",
    ("(1,0)", "(1/2,1/2)", "(1/2,1/2)"):
        "6b6ad4b11512365bff5ccb754bf8e6d3541b22fdc7d02d69f936979581f7f506",
    ("(1,0)", "(1/2,1/2)", "(1,0)"):
        "f5c97299a7abe3ebfd4ec2c0798dcf0ab33bd5ee347e96a7875499e108d5d6f0",
    ("(1,0)", "(1/2,1/2)", "(3/2,1/2)"):
        "abfb63b875f7aa0fb936c50f34cd11019aa95d971016d0992becd1f1aff153b9",
    ("(1,0)", "(1,0)", "(0,0)"):
        "0fa8a17cc8616823aac0a8d276ec9a1813dcf7d37916299739aa690ea8ee08fa",
    ("(1,0)", "(1,0)", "(1/2,1/2)"):
        "77786de48ae243ba9c99105637e9685c563827e804eda6c378396015771fc319",
    ("(1,0)", "(1,0)", "(1,0)"):
        "c9cd24c30c70507bca71a9df20ab1a5cdd224d05d1d0aa963ffc4c860aa00f1c",
    ("(1,0)", "(1,0)", "(1,1)"):
        "5092d08d2166d42eceb0e6e0c0ddff2420091852dda99ce2edc599b8f1726eb7",
    ("(1,0)", "(1,0)", "(3/2,1/2)"):
        "f491871eb32fee4360524167e7707d64644a9f70e75313707a9ca31d6aacce84",
    ("(1,0)", "(1,0)", "(2,0)"):
        "597599891bdcdee93ef8a63afa42643936ce51276053c5d74cfdedb6d458e36d",
    ("(1,0)", "(1,1/2)", "(1/2,0)"):
        "0dccd3cf6f9373076fcc51fae31c8a4d2ce1b7e33fbfba40ebb6cbabc696a13c",
    ("(1,0)", "(1,1/2)", "(1,1/2)"):
        "aa70c33b74b754c34031fd12e849d20d96281ecdf3ee618d4cff223eb237409d",
    ("(1,0)", "(1,1/2)", "(3/2,0)"):
        "a0f9fa87c7efe83415d8e53c3423961cff06b2adea37fad00beb972fceacc640",
    ("(1,0)", "(1,1/2)", "(3/2,1)"):
        "91be429fc10fa4fcc98b97277d13fd3249e3f21c23b78c6eeaaf291e95e0f59a",
    ("(1,0)", "(1,1/2)", "(2,1/2)"):
        "1cd16cf3e002a3f25234a0710baee68d8a18c669b9c68b6ebf75e3a1365d91eb",
    ("(1,0)", "(1,1)", "(1,0)"):
        "5e2516cc6c2fac4216989843e7999664f61b1b55818b6f319b9049cd073255b7",
    ("(1,0)", "(1,1)", "(1,1)"):
        "e66ce171390704d86613699233f7a8aeb12bdef4c092771ae0e61e3d9ff95401",
    ("(1,0)", "(1,1)", "(3/2,1/2)"):
        "e04fdb4218a1913e76d802272c2e8e0c73d7097166e198c0a8af40e256ce54c8",
    ("(1,0)", "(1,1)", "(2,1)"):
        "3a35d62386572e596ccfb0d94b68b5f87cb38d62151f2d8a3f03d4b56634e8ff",
    ("(1,1/2)", "(0,0)", "(1,1/2)"):
        "65db0dc4e893a6b943fb2a4dd163404bb794a8eaa0e8fe1d1f482eeca8bc4aab",
    ("(1,1/2)", "(1/2,0)", "(1/2,1/2)"):
        "a3d8d7900045720b205bee52a82d3b076129935953ebd1ee9d0c292de9a53be2",
    ("(1,1/2)", "(1/2,0)", "(1,0)"):
        "48180ef10487e82a3a3205ac1672f5ff42ada4838e97be6ca6d003b5ff6efdf9",
    ("(1,1/2)", "(1/2,0)", "(1,1)"):
        "dd18990bf727dccfb51ec789a62920a6656ead0d07a6ea5d48556bc2ac0f2302",
    ("(1,1/2)", "(1/2,0)", "(3/2,1/2)"):
        "91557670ca0928e726ee6e32d9c4f701b02545eedaee2a0330f16b8954ae4835",
    ("(1,1/2)", "(1/2,1/2)", "(1/2,0)"):
        "bf7a46c5ad455a13b724c0a10a5ca8861a16bb4158e2a4a1e54fdfe850ac6da0",
    ("(1,1/2)", "(1/2,1/2)", "(1,1/2)"):
        "beab6f587046e8fac8d3291f3fe7f9a7314406685c4b2d5ba7785661616931cd",
    ("(1,1/2)", "(1/2,1/2)", "(3/2,0)"):
        "5c55185af3edbb8734d4622250a3cc50b9d568e685678d3139e42bbba902d308",
    ("(1,1/2)", "(1/2,1/2)", "(3/2,1)"):
        "c31a3d099474d1428affb10c2045ab1118fd20d1d51404233a93f8050ad33c17",
    ("(1,1/2)", "(1,0)", "(1/2,0)"):
        "b6530a3cae936ece4dbc13f4d7098c166752e94a9f5577414b679d2a85566b41",
    ("(1,1/2)", "(1,0)", "(1,1/2)"):
        "a6cba1fa637e16c123bffe5fc2e60d68d356ecd16843124458c4ad4193c8cb6d",
    ("(1,1/2)", "(1,0)", "(3/2,0)"):
        "7aa96e0e5866324171c870c9ab1f42275f22a4b2fa488216f5e6b88979bddcee",
    ("(1,1/2)", "(1,0)", "(3/2,1)"):
        "225e44fb299224aa92354b925c29b2e8eb9f29a43600d89aca879bb86c49c622",
    ("(1,1/2)", "(1,0)", "(2,1/2)"):
        "208c76e2fa1bfb6d365e2ad5af8dcf8df793c7abfda0db6a32328da7b85493a9",
    ("(1,1/2)", "(1,1/2)", "(0,0)"):
        "b945a7c636d739fc919869b96b616c4526992a8dde67cd7f9382a12e32f43f3e",
    ("(1,1/2)", "(1,1/2)", "(1/2,1/2)"):
        "61ce20af6d2343827969b831ded05ddb6aec05b5a8f33da1edd5c55008d49279",
    ("(1,1/2)", "(1,1/2)", "(1,0)"):
        "24e1c169efb03786224c72e1441f7124b6023a14f5309dcf368094fbe761d897",
    ("(1,1/2)", "(1,1/2)", "(1,1)"):
        "bb9aefdf9779357ad3dec8f01e69ff845b2de65910c61f946fd168f5ab82a9ae",
    ("(1,1/2)", "(1,1/2)", "(3/2,1/2)"):
        "d8b6ccd43d0cc9e84e7fa7b3d6485e7fb128950f19f100844df50faef5421620",
    ("(1,1/2)", "(1,1/2)", "(3/2,3/2)"):
        "3866fb036fe21340041fef2620124551669f76594b349107ed44552622034b18",
    ("(1,1/2)", "(1,1/2)", "(2,0)"):
        "d91d8c02f151378dd2aef10a4d3d7f70f4ca4d66839eb0f8d0c2111050c0c59e",
    ("(1,1/2)", "(1,1/2)", "(2,1)"):
        "5f88673d990a334d62333f3eacb4063c4a176138dee05fd432c19c22aeb9b156",
    ("(1,1/2)", "(1,1)", "(1/2,0)"):
        "8fcda939397676128ded7db2906b2e3c9c3b53aa015b8ac1848dd3847ce37789",
    ("(1,1/2)", "(1,1)", "(1,1/2)"):
        "3d7a56c36d5a516d3f29daffb4d3758f67e6612ebcdcfd5c1a4c8aea7f643f34",
    ("(1,1/2)", "(1,1)", "(3/2,0)"):
        "0a62022e1ac1e792505269159dbb304ddd968d026489e6295e98254d8de1aafc",
    ("(1,1/2)", "(1,1)", "(3/2,1)"):
        "1e852ac8cba08f2fa8e52a9f8d6a94020ab83f37d145818d2677646d4bda5b95",
    ("(1,1/2)", "(1,1)", "(2,1/2)"):
        "119f003e958ca0f525e67736288eb4d3ea07b896c8decaed2e3fae3dbce00c10",
    ("(1,1/2)", "(1,1)", "(2,3/2)"):
        "e4db64d659b8796a9c4b4564bba27afd4ed41f0a4ebd525d78f596dc3d892e2a",
    ("(1,1)", "(0,0)", "(1,1)"):
        "8854998690b2efe8cf43ea7838e69a522105a47e57799e6c409e255ec9c4ecc2",
    ("(1,1)", "(1/2,0)", "(1,1/2)"):
        "467509d7394a096d530ef0821c5ce2e4700f7c975a4dbae823c4a1ac1543ec8d",
    ("(1,1)", "(1/2,0)", "(3/2,1)"):
        "ba96fd28ada6c27819a9f6c1d40b4b3740080b92d89a1b575f09e11fdafd73fc",
    ("(1,1)", "(1/2,1/2)", "(1/2,1/2)"):
        "61d6646b5f84862279b2160de27034de7fd3a9d53923a21608aba20e708cf88a",
    ("(1,1)", "(1/2,1/2)", "(3/2,1/2)"):
        "5960e7a9eb4e123edabf2ff1bf33bd461f62c333cec8743fd1d0c850a250710c",
    ("(1,1)", "(1/2,1/2)", "(3/2,3/2)"):
        "944f217e055f19386823e54e806212fa2891e61caf7e3ce0953661cdfe4b73ea",
    ("(1,1)", "(1,0)", "(1,0)"):
        "d6ae333a34ee80506dc437b91450d605344ef05a70458235ef81b0f2d516b0d8",
    ("(1,1)", "(1,0)", "(1,1)"):
        "3c81db70fe41e3d2d11c2e19ca3b44f82a929cac32324966eefbc3d5fbadc5af",
    ("(1,1)", "(1,0)", "(3/2,1/2)"):
        "513165c9c67f61eda594d8fe6eda14d05642a925838f531d9af0d687c3dc0eab",
    ("(1,1)", "(1,0)", "(2,1)"):
        "ba2a133ab11c87e6bd0f8c35266c2ca96071d9a8a654f2011f5e6cff4bab2dd5",
    ("(1,1)", "(1,1/2)", "(1/2,0)"):
        "f842fa1ac7128c76d9dc773ab9ce4908bf669f184c2fa8539de5e6c661cd8bdf",
    ("(1,1)", "(1,1/2)", "(1,1/2)"):
        "d5c1fef5b63596400abac3064b0091f3b25e144d35fbafd366f6ade3042e9beb",
    ("(1,1)", "(1,1/2)", "(3/2,0)"):
        "adefa16f55ad645e6998cc24443b050e14616d23efc7a86e498efe3eaa23e4c1",
    ("(1,1)", "(1,1/2)", "(3/2,1)"):
        "dc49e36e9ef2bfc6aa649fe22774f7919c869ca48ed2e0ec3e27f63e9b704099",
    ("(1,1)", "(1,1/2)", "(2,1/2)"):
        "d830fce73972224b8451d85ffa04da8b3830fdac6a7587533c79648946c77cbc",
    ("(1,1)", "(1,1/2)", "(2,3/2)"):
        "eefc6b1a0f0b5a94e9f12d7f6e33f7ae4a8131cf8ebd7cad8f835e25ae4ceec1",
    ("(1,1)", "(1,1)", "(0,0)"):
        "d111e8343b26fab75442df0d1e94e4b29667912f34e186f645aa8593246a605b",
    ("(1,1)", "(1,1)", "(1,0)"):
        "bf23a54cb951985a7a0fe795d4a550c2b4e695a2cee246ddc41c88196eae054d",
    ("(1,1)", "(1,1)", "(1,1)"):
        "6d8ebc24ccf199eceec550e2427aff6d4b0f4c921c5792381d9607c071db7d0a",
    ("(1,1)", "(1,1)", "(2,0)"):
        "ac2aba369700566fd8f4cbcc1548e37489540b4b763ef84d37863b486a1be6e9",
    ("(1,1)", "(1,1)", "(2,1)"):
        "8f629551f15831ed0fcb5c468f6a761a9f521b0feef90d14d9f4cdc72821c695",
    ("(1,1)", "(1,1)", "(2,2)"):
        "024c2083bf4e96a0e37be4a33c5ff6c7a6beee9a033e4d4299656d662a239785",
    ("(3/2,0)", "(3/2,0)", "(0,0)"):
        "8b611ab6046e4a7a8b87a83450cae3427eb6fdc8fd6f59777b119f23bf1377f2",
    ("(3/2,1/2)", "(3/2,1/2)", "(0,0)"):
        "7e8332a6f6ce2e091976da33f5acbf4667f41cab6a8df3b68d0c8d755349c570",
    ("(3/2,1)", "(3/2,1)", "(0,0)"):
        "203611aeddf6dfbdfcddf42cd74f6decfe07ab9a073ae18e8e5469a5a97e441b",
    ("(3/2,3/2)", "(3/2,3/2)", "(0,0)"):
        "24dd6a7359d282a0043c21198b4d488de211db8e2bbabb714c0099f02b8af0f5",
}


@pytest.mark.parametrize("g1,g2,g", list(DIGESTS))
def test_block_record_frozen(g1, g2, g):
    blk = solve_isoscalars(*(So5Irrep.parse(s) for s in (g1, g2, g)))
    digest = hashlib.sha256(canonical_json(block_record(blk))).hexdigest()
    assert digest == DIGESTS[(g1, g2, g)]


@pytest.mark.parametrize("g1,g2,g", list(DIGESTS))
def test_block_values_are_single_radicals(g1, g2, g):
    # the phase convention reads the sign of the leading coefficient off
    # its numerator; every coefficient is one signed radical
    blk = solve_isoscalars(*(So5Irrep.parse(s) for s in (g1, g2, g)))
    assert all(type(x) is Radical for v in blk.vectors for x in v)
    assert any(not x.is_zero() for x in blk.vectors[0])


SYSTEMS_DIGEST = "7078b52eeddd0e3a55a1675e3058dfbae41cee953a4e5874d949fc62f392647a"


def test_systems_frozen():
    out = []
    for key in DIGESTS:
        system = build_system(*(So5Irrep.parse(s) for s in key))
        out.append([list(key),
                    [[str(lam) for lam in labels] for labels in system.row_labels],
                    [sorted(row) for row in system.matrix.entries],
                    system.n_augmented,
                    system.matrix.rref()[1]])
    blob = json.dumps(out, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SYSTEMS_DIGEST
