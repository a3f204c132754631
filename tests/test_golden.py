"""Golden CLI output: (argv, exit code, stdout, stderr) pinned as one sha256 each.

Every family, a product of each kind and every refusal path is run through
`zclass.cli.main` in process.  A change that alters any byte a user sees, or
an exit code, fails here.  To print the table for a deliberate change of
output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from zclass.cli import main

TYPES = (
    "A3", "B4", "C3", "D4", "D5", "I2(7)", "I2(8)", "H3", "F4", "E6", "E7",
    "E8", "H4", "B3 x I2(8)", "A2 x D4", "A1 x A1 x B3",
)  # fmt: skip
COMMANDS = (
    ("count",),
    ("count", "--method", "oracle"),
    ("classes",),
    ("classes", "--method", "oracle"),
    ("verify",),
)
ARGVS = [
    (command[0], text, *command[1:], "--format", fmt)
    for text in TYPES
    for command in COMMANDS
    for fmt in ("table", "json")
] + [
    ("verify", "--all-small", "--format", "json"),
    ("count", "B5000", "--format", "json"),
    ("count", "D5000", "--format", "json"),
    ("count", "D4999", "--format", "json"),
    ("count", "B6000"),
    ("classes", "B27"),
    ("count", "A1000000"),
    ("count", "E9"),
    ("count", "I2(2)"),
    ("classes", "I2(300)", "--method", "oracle"),
]


def run(argv) -> tuple[int, str]:
    """The exit code and the sha256 of (argv, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([list(argv), code, out.getvalue(), err.getvalue()])
    return code, hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    "count A3 --format table": (
        0,
        "7525353e7faca5690456b6ece8ab8a6a5e4427d53d738669ce475a69af66c460",
    ),
    "count A3 --format json": (
        0,
        "b1ba4856abf0d84196cc29aaa7859123f684094771e9e7479b4cb7460881be9d",
    ),
    "count A3 --method oracle --format table": (
        0,
        "e10c92231a9e116bcfd3fe38a8ba1a76bfb837701b7029e78fb166df9781a714",
    ),
    "count A3 --method oracle --format json": (
        0,
        "50beb1aba996c8a771d118221a33a786c36e6e194a9cffaf4a36abec7b783071",
    ),
    "classes A3 --format table": (
        0,
        "8423ee558d6e6106ef73f44736cdc3d91648216a72782d447879f78971462ddf",
    ),
    "classes A3 --format json": (
        0,
        "744394a460bd6e0d3f48b3ba4d222996bd91429beeb2b31480fc45c2ef151955",
    ),
    "classes A3 --method oracle --format table": (
        0,
        "8471f70cf4a452b405f6f0021d73d0489ed0b2a275fd438638127cfcba9fd2de",
    ),
    "classes A3 --method oracle --format json": (
        0,
        "e14615668731a74b4d299909eee6af6ab097a8c15540784db03dc7f3ca7281a0",
    ),
    "verify A3 --format table": (
        0,
        "09c9a89b027fb49f8a21bd0410a0d780de0e48b792cfc8ef9ebda3a76811acf1",
    ),
    "verify A3 --format json": (
        0,
        "e3ccd37bb1fadafb60d58b5e1e3ccacc92fd555d857cec32d27dcde6d86d9853",
    ),
    "count B4 --format table": (
        0,
        "e3ba0a239be89fb4296ffe1f2e295124121df2fe1f564afb8fd68076500e0e6d",
    ),
    "count B4 --format json": (
        0,
        "1a68502c6b458198b575cd8cdaebedbba2aae7788672969a6fa1131860ab2e76",
    ),
    "count B4 --method oracle --format table": (
        0,
        "7d7e03f16aa2ef6e24d1dc5bef854498902c9174a861a88c6237021b4d70ed36",
    ),
    "count B4 --method oracle --format json": (
        0,
        "72dfd79e8d4d11cdf32a6dfddb86f6672265e1ed8b4b51e0ce098b6733da3206",
    ),
    "classes B4 --format table": (
        0,
        "0c315dee55bf94dde95c540a5a53122624a2b83ff77fb6050e5f9b5aae6d2b6a",
    ),
    "classes B4 --format json": (
        0,
        "ed6211d41ad798d888513d8fb8d182fcc7e8db4cfee5ea649b6a2307ed628b13",
    ),
    "classes B4 --method oracle --format table": (
        0,
        "a7ca6fe6c9d4eb8d60658392bce5ce579ca975389fe1b73c4a5cc437a20904f4",
    ),
    "classes B4 --method oracle --format json": (
        0,
        "de74914d21114781340676f481560492cf43f3b6f859cf09092b5e099d51a128",
    ),
    "verify B4 --format table": (
        0,
        "76157f33ea512530de8d16b3baddeccafce82d5cefb1cfb2b16bf1681bfd2732",
    ),
    "verify B4 --format json": (
        0,
        "b9f855614be2cc8df3d89c4db53c6db97c7f3797b927cd9649d6e9353af68a5d",
    ),
    "count C3 --format table": (
        0,
        "56a9ba845170541513547f9e859b3ec9472cf96f3778610b30df15d571145936",
    ),
    "count C3 --format json": (
        0,
        "a0081c2091f438336651332fe854993749a1ee9ebea064aaaa19b0b5586db79b",
    ),
    "count C3 --method oracle --format table": (
        0,
        "580db9005f16683f7909c50e92d54dc698b8ece0e35b1690ed5f84e480972051",
    ),
    "count C3 --method oracle --format json": (
        0,
        "e5c5b9d831e4a18b3dd3f9fee155acda2caf42bc374662ce448dd88f99c60b66",
    ),
    "classes C3 --format table": (
        0,
        "e760ef831c97a2c8dd29d28bd428dfbce5f4ff20543c0e4ca044cae46e982b85",
    ),
    "classes C3 --format json": (
        0,
        "d775eb3b94773547d1cb9facf67eba15a0cab36ea382bd4fe15b70165cf55024",
    ),
    "classes C3 --method oracle --format table": (
        0,
        "d4e1566254497584c6a2fc31d70118d6c39c345b8a94e18fd4c987911aabd35a",
    ),
    "classes C3 --method oracle --format json": (
        0,
        "96dace7466a70110937a79686552276eb93534e271ff19cb9adecc636a894967",
    ),
    "verify C3 --format table": (
        0,
        "038d9dde6395ddbf8174b6939bf3ab17b112c465ca99c666e6966ac0d5437a88",
    ),
    "verify C3 --format json": (
        0,
        "cb1ce0b34c58623b57d0a0194166c050a2f94f2a4ea8637fbb5d7ae27a858835",
    ),
    "count D4 --format table": (
        0,
        "76a1861378ad7795eee8d2f058d808216487868e8eafd3a95c83820993f2f1e9",
    ),
    "count D4 --format json": (
        0,
        "6946b6378d6aa1edb07c159417137c474bf6417023d08300f52d4d2917f24b85",
    ),
    "count D4 --method oracle --format table": (
        0,
        "3d62aa5806ad917ae67f1219c8595d3de2e80b442348ba58176460eed2f1c7f8",
    ),
    "count D4 --method oracle --format json": (
        0,
        "7994f33274c7876cd95553fc0332e6c014bd71551d67d18fbaf2bc2db709a310",
    ),
    "classes D4 --format table": (
        0,
        "b7c10c0a3d680714951afcc76191f6e83bb81a61fe833b4c008f2aa3219ae357",
    ),
    "classes D4 --format json": (
        0,
        "bdf0f841e23deb85f058c7765b7ee0f265d81c41a557ac8848822816c0ff8365",
    ),
    "classes D4 --method oracle --format table": (
        0,
        "3c7578f77523f044b893928fbd25d07379584fdd42537c5c80ac8ad9d228105c",
    ),
    "classes D4 --method oracle --format json": (
        0,
        "3976597d35a71c25e6769549b05e71547ccbdd314c62f809b2811e5f662a28bc",
    ),
    "verify D4 --format table": (
        0,
        "031f6d85ce6c16b4c78541136fe108188c7f97aa5fdd6c4931bf11209ba548c9",
    ),
    "verify D4 --format json": (
        0,
        "5b3a3db70366be6a1900617b5e6c85040b999be3dfe7dc6facedfae008f7d292",
    ),
    "count D5 --format table": (
        0,
        "26a0681b25c6b22e703ebbc1063f5d639b174c6aa9242a58118720e0ca517869",
    ),
    "count D5 --format json": (
        0,
        "f90c671f42ed4faec0bdedbc03a6f5a61874c19715a41a24cfc5409249cc7c42",
    ),
    "count D5 --method oracle --format table": (
        0,
        "8ffa3f87af69904801fb4a658ff14f6292b42ae3dc0bbf0fb47fb859a767ab99",
    ),
    "count D5 --method oracle --format json": (
        0,
        "3e71b29612429b04549ef8ce5b3683758993ca983b4c786418ccf8a0b9b3ba33",
    ),
    "classes D5 --format table": (
        0,
        "805c653796f523f3ddd04ebc92823f60fa5f825aaf660281dd04e27acc75bfd5",
    ),
    "classes D5 --format json": (
        0,
        "d4c6a778bf30bf1d2613ee672e6b85d5dfdfd5f03389b1d65ad32ba6a4342af7",
    ),
    "classes D5 --method oracle --format table": (
        0,
        "b08962497f6887b61e0f5ad0ec36d72de5f062527c9eb398c94eba2ba63039de",
    ),
    "classes D5 --method oracle --format json": (
        0,
        "728f582edc50ff2d6f5dbf0d318418e4aa7484a23866304ec02c34b48e1e0aed",
    ),
    "verify D5 --format table": (
        0,
        "725290a6ce6c747e1fb5f17a0bb143a19d310e0188ce560629209d8cacc02c31",
    ),
    "verify D5 --format json": (
        0,
        "b04e90335ff14ebd80ce290968c65aaec27784b8ab9bfdfa4c21b472a247feae",
    ),
    "count I2(7) --format table": (
        0,
        "dab6f601148bd833f6b25382049d74542580715324adc5c2ecc0fe82dec64d46",
    ),
    "count I2(7) --format json": (
        0,
        "9f571b3a29b349f3fb9e5574dec7aed97e13b7f0280fc535030943a23d15f264",
    ),
    "count I2(7) --method oracle --format table": (
        0,
        "66868d82e5de0591e37e2d6cb53af1d1c91c0f64a6f5613a98510d49b7ee47ff",
    ),
    "count I2(7) --method oracle --format json": (
        0,
        "e3113e4d374948a5068c32ccf4798514fd95d38ca284f524a37d5fcbe303fb3d",
    ),
    "classes I2(7) --format table": (
        0,
        "6eab15c64167df20c79e824fef7978c344fa5e2939b76ac38278b2b1f8c6a093",
    ),
    "classes I2(7) --format json": (
        0,
        "b3080ddade3351a1c972c7dd24342f1064f26fcfac6cc0f11edef352690451a5",
    ),
    "classes I2(7) --method oracle --format table": (
        0,
        "84e200e30796fbb4428879a44df243bdc74b986950bcf46d15873fad6953ad7a",
    ),
    "classes I2(7) --method oracle --format json": (
        0,
        "923efb6618e3a7bfc388973b73b2f87040cd7df2910bc06a6deb5b1cf461e40e",
    ),
    "verify I2(7) --format table": (
        0,
        "f3dbe4f381b9965d2fa1dfeb58c93cb0abfe7b4e45c5dd0a8e12d0d0a5f95a35",
    ),
    "verify I2(7) --format json": (
        0,
        "98d9a80173e0dfceff08d459e81040c428d7b54c14b2ed631c08e848b94cc8c3",
    ),
    "count I2(8) --format table": (
        0,
        "508957970367599f58c1fefb50320a2fd77e8d878f847158de022cb6c86c09c1",
    ),
    "count I2(8) --format json": (
        0,
        "bd6b1fc7e435ec403d44829c45b8165d6a277d4f6d20dec9a5f7c9af3c5890ba",
    ),
    "count I2(8) --method oracle --format table": (
        0,
        "6d91d03fda6260ba179e516478e8ea1d0509b925cd3aed63da6f7d5d582412b3",
    ),
    "count I2(8) --method oracle --format json": (
        0,
        "1be0addc2783626ed7d2f04f472b68ff84e80998bf0c7b8d56e21bcc7256f3f0",
    ),
    "classes I2(8) --format table": (
        0,
        "9e409ab20320a5a32046c81e0ab9093b12f47c41270fdaa9d778852317a878e7",
    ),
    "classes I2(8) --format json": (
        0,
        "f428359ec25a318008b0467144b2ecb2ca795dc389c7afa30e5feaf15dac89d2",
    ),
    "classes I2(8) --method oracle --format table": (
        0,
        "deb9cc1bb9713e132f6aa576431d43dabb803af43d58288725a5b932759092c3",
    ),
    "classes I2(8) --method oracle --format json": (
        0,
        "f812c39b17cfd4f333aedbfbb59c01eccaa19533e99de7adce36947a26237d64",
    ),
    "verify I2(8) --format table": (
        0,
        "6d2ae50853cfd9326ebc5e307680ae19d9ab4b42232f3f77aec6b000b108b8e5",
    ),
    "verify I2(8) --format json": (
        0,
        "9d5cf2fbef828f4aeaf9b3ac791d10e3481b0fe44c9ea7157864c46e978f8cd5",
    ),
    "count H3 --format table": (
        0,
        "6cc49c8e410f44827922fb1ed8dac4077858a394b9ab208229c5dd295bb251e0",
    ),
    "count H3 --format json": (
        0,
        "ad5714612c29b25e7bf80f2b6dd66c05cf8ec46df7f7112349a0b788a5d64a42",
    ),
    "count H3 --method oracle --format table": (
        0,
        "d2dfa24669021083a351fb7ce2a92635bf21980048bb998d1c5df95248f91bac",
    ),
    "count H3 --method oracle --format json": (
        0,
        "24acae1d2e2ae00a3e28922b36fab8aee42a82f5bcad5fb69b66a26669a2eb6d",
    ),
    "classes H3 --format table": (
        2,
        "fa47d5eb4f5cbf045af84a2d66a8b9cd567cea32562bccbab89769e85afd89ed",
    ),
    "classes H3 --format json": (
        2,
        "a988d3e7699d150c1e4eb6f3aae94777de1f96c5ec213614caffb4aadc3653cb",
    ),
    "classes H3 --method oracle --format table": (
        0,
        "c1b60563d6ef81791cdb50f864c9ae1343073d4096724dfc85990b3e142a74df",
    ),
    "classes H3 --method oracle --format json": (
        0,
        "a292702dc6e45e5137a719948bb074ac9d4868745ca006e2ae085792903c34fc",
    ),
    "verify H3 --format table": (
        0,
        "9396c1d46de2670dfb1222dd29a73034d39393e7f3e05a445a361cf1143ace34",
    ),
    "verify H3 --format json": (
        0,
        "e7004d87a76e91afcc234b5f60140e4faaf33ec55eb7c50ac4497ce65e3671f4",
    ),
    "count F4 --format table": (
        0,
        "4d37309795b248f63c8986a484100711614f2f4066003d0b51f8ac7e5a2d37ee",
    ),
    "count F4 --format json": (
        0,
        "91aab0b5e32ae32289b24655818fcf9cd2e645d9850a0390e9205ed6baece245",
    ),
    "count F4 --method oracle --format table": (
        0,
        "b490c5bf7d0995137e5323f84354288ea00864dcded0efa38ae8247857a30171",
    ),
    "count F4 --method oracle --format json": (
        0,
        "5379d212293970b30aabd76dca235849dd35cf9a7ee265407eae87302717c660",
    ),
    "classes F4 --format table": (
        2,
        "ec0b95703a2ba58e69dab04c915209e93f5e591d199812162fe6d295f0a30182",
    ),
    "classes F4 --format json": (
        2,
        "10762879233e77da011080932264e88f42bbd7cc3238ea39a8d49d68fb5f719c",
    ),
    "classes F4 --method oracle --format table": (
        0,
        "db60c09b59876a50c1eab057ebafa5bbec34709bc20eed51caf2c7c1840b2658",
    ),
    "classes F4 --method oracle --format json": (
        0,
        "216561eca634be8cfca5ef4746e5375713a13b6ea7cb172a685d97689f3f3273",
    ),
    "verify F4 --format table": (
        0,
        "57eda4445aa283368daa1cd9ea87173d9d371670e2aa7af5306a73bf4b28617d",
    ),
    "verify F4 --format json": (
        0,
        "44df7f6f50c99667f082364228050c5996dea5099395f4c5461b32070049639b",
    ),
    "count E6 --format table": (
        0,
        "1c718cabfc1e48aef4f7f6425cd24303c1c4d767970fc5147e4ef345d1ab25f5",
    ),
    "count E6 --format json": (
        0,
        "5ef853472f656067e58a736c263ea210f37e1f1dbc3c340ade3cc43e79a32e84",
    ),
    "count E6 --method oracle --format table": (
        0,
        "33819448caf88b7e737e708d9ed29b9feddfe346088f5d8c1cd8aa916af32c0e",
    ),
    "count E6 --method oracle --format json": (
        0,
        "1a9ce41b644ee5afe27dd781e5a5e62426d0943bf50292bc338df251f7075550",
    ),
    "classes E6 --format table": (
        2,
        "1fbd70bed4399e6cbedf6b221b2881a84bee40e9fed07ea6b82db08ff2164c35",
    ),
    "classes E6 --format json": (
        2,
        "bf07f18dcca1a2019ea471733051b5c6a1d83ebebc12e5dadb1e4129725c6ee5",
    ),
    "classes E6 --method oracle --format table": (
        0,
        "27efdf58ef3b542ac8e65ccef47d154edf7698b16ca41ef26bff4bc57e540c71",
    ),
    "classes E6 --method oracle --format json": (
        0,
        "733051946630d9ad0267192613ed2642f7c3451a1ff7ade6d074c14dc5a9e2cb",
    ),
    "verify E6 --format table": (
        0,
        "f00aa572ab749f1a48eb8090741cd6a036828451a89bb809c4c7858140f847c5",
    ),
    "verify E6 --format json": (
        0,
        "e3eb3165544c9e2cbb18798e330f085e964a9e28acbef03a51ba4ff57fd1e4e0",
    ),
    "count E7 --format table": (
        0,
        "cea39501eec6d54134328cbc38d41dd4740d10b988a1754b4d1c58894fdbce87",
    ),
    "count E7 --format json": (
        0,
        "f6c3e129cda072e239a4e3277bd38407b89c41fb74740c0a8f74d0b908376edf",
    ),
    "count E7 --method oracle --format table": (
        3,
        "6dbfeacb46946e22ad118f7b7f43a1a8bcd4cacb971d31251041cf486b5225fe",
    ),
    "count E7 --method oracle --format json": (
        3,
        "d289762caa2c739a2a9ecf391d3de8ebc4cc5d974b5f90360a889f519d53c69d",
    ),
    "classes E7 --format table": (
        2,
        "65d253053bad7133b960524f316aaffaedcade6fac36e79e17cdc0e156ff9c1d",
    ),
    "classes E7 --format json": (
        2,
        "c9fa437492df73f4700aa2e4a736e08a40cddb9270fcf67512ca3451a1899070",
    ),
    "classes E7 --method oracle --format table": (
        3,
        "dd6ca80563e8c94b534df3fa900cd5c170a1b7dab339c690f3a16f0d3b074bd0",
    ),
    "classes E7 --method oracle --format json": (
        3,
        "a2441def5cb5a4e2db2af7b8c19286cdf7f7dcee6e8eec011e9c119a53c4d577",
    ),
    "verify E7 --format table": (
        3,
        "7b5012911d9d405b45b6fcce62f5d60bf0758af2d0659d14d48bca6a2f4018ae",
    ),
    "verify E7 --format json": (
        3,
        "3e6ead82fb40dd465996cd5cd16dbb0d939a9d824859bb0f2546f459ce51a381",
    ),
    "count E8 --format table": (
        0,
        "4adf25e1c11adc49ce35677e5739b766531daf28a4083cb581a84b8f3a308aa6",
    ),
    "count E8 --format json": (
        0,
        "172882e86815ce7cc6c40f58d3b30504dcee92241654b0f44a962c3cdfbba14c",
    ),
    "count E8 --method oracle --format table": (
        3,
        "ffb9237801014ce6c910613c79b2f0fdbf2615a6de19280132ec2939ca0a0122",
    ),
    "count E8 --method oracle --format json": (
        3,
        "34ff88858cb16534c83081c5ae13fdd74a337a4d6491371abdeefd498760d4bb",
    ),
    "classes E8 --format table": (
        2,
        "cb3a2cefc8f2e469ebb93838158214325e246251eef8c017dda11db398b15a98",
    ),
    "classes E8 --format json": (
        2,
        "d45683659e4ddca4710e0e3932c8839d3629f92f895153a2cfad88bcc84b2f7a",
    ),
    "classes E8 --method oracle --format table": (
        3,
        "17b7958ef17e76db332069ab2c545e4f7481f01f970537443ba85161ecb722d6",
    ),
    "classes E8 --method oracle --format json": (
        3,
        "6b401b7343b9638f5522913394fc5faf33deb3b79282c8ffd923a84b56832b75",
    ),
    "verify E8 --format table": (
        3,
        "9f225126421731eb1787dd875280a25b5071f952ba945bd0a674b2882fbb0f99",
    ),
    "verify E8 --format json": (
        3,
        "8d7c69612a69c69e3923e2238eda452e379ce5ba49807ee2cc6e18c7470513a0",
    ),
    "count H4 --format table": (
        0,
        "726304319a398043d8d08461a21a2e12972980427a98b143a997d06f21fb43e3",
    ),
    "count H4 --format json": (
        0,
        "ecc7bc2937b5315f2cfabdf2f411650ac686d0f97413072a5c1a1df4199d5b67",
    ),
    "count H4 --method oracle --format table": (
        0,
        "4874b2d4cd6efad4a8af08db4a30876b322c4c025557f4d8a8e37b6d6c7ac4f9",
    ),
    "count H4 --method oracle --format json": (
        0,
        "91bcc27a1264c52cd26ccd3072bac0a432c59ee839cf3e76e06130ecfc7feab5",
    ),
    "classes H4 --format table": (
        2,
        "39223b69da7953c0475717cb045723faaa4c6b28ede8e0eaa7fc0dc479459b3e",
    ),
    "classes H4 --format json": (
        2,
        "4d1a9122c413b000367f348a998780472ebf3a831ea6b1c7c1ace0650348f933",
    ),
    "classes H4 --method oracle --format table": (
        0,
        "1f2bd87e5df389aa49a6832e6651cd5ef5dc767bfcf08013da06ec190c786e03",
    ),
    "classes H4 --method oracle --format json": (
        0,
        "1eaf89fcc8a5b913866545b33207141549418b65d8f5dfe5b685b0dfd15adc9e",
    ),
    "verify H4 --format table": (
        0,
        "2b708b5513ae0452beb5c9e8d0d0e69a5f81ab0c5a188ddf480f7665d27061e5",
    ),
    "verify H4 --format json": (
        0,
        "5a320ac68b7f66c7bc1a736d8a1c8240c1febd0aa130df2113eeb4686f6b7e9b",
    ),
    "count B3 x I2(8) --format table": (
        0,
        "5c5e621ea5c0c84ff0ea2d36d6683fe49d061950f2d053392b91fc118b57e1c7",
    ),
    "count B3 x I2(8) --format json": (
        0,
        "9f7a3081d668a65c0f887b9934540364708f48d2f7e94d86b51bb64445eea030",
    ),
    "count B3 x I2(8) --method oracle --format table": (
        0,
        "d7415f8f747e03eef29a7c2bea31074b36ad6ec934d12c0bb3bc9ae72840bbd1",
    ),
    "count B3 x I2(8) --method oracle --format json": (
        0,
        "9761d78e58fb02a9b7a48f1e7b719cffef6e51ed7aa25eaa871a413d10191187",
    ),
    "classes B3 x I2(8) --format table": (
        0,
        "31544ea2fee1e6c14898a8ce28c6a0a185507a9080a268a98261b583349881c0",
    ),
    "classes B3 x I2(8) --format json": (
        0,
        "d46eecc5b279ad33528b0b2addf92184654458c8a105e3176d4127de28f4ace0",
    ),
    "classes B3 x I2(8) --method oracle --format table": (
        0,
        "e382b5640e3d16d8f71836d620a20b5ca79be68c8172516fcfd234465a3931d6",
    ),
    "classes B3 x I2(8) --method oracle --format json": (
        0,
        "17121b8c0346b503c3e33ac63818a7c4dac1f305cc54cca4421bb2beba6e85fd",
    ),
    "verify B3 x I2(8) --format table": (
        0,
        "69775d89a15d12bbe5501b62c0a97af13516fc046f2591da4e898f1b2ccd4a0b",
    ),
    "verify B3 x I2(8) --format json": (
        0,
        "0050415b9d31fa9b270d7b0878b613a2cf8145c8f49a7c58b4cb795aa2b6d98a",
    ),
    "count A2 x D4 --format table": (
        0,
        "7df30e841396e33b7f33d55cffdbe35a760d6584a2fabf53ab5b516207a7849c",
    ),
    "count A2 x D4 --format json": (
        0,
        "886c377f412aa4d33ec6f4ca2234e094e85219cc50e7c3e4e04ccc78c6b61f88",
    ),
    "count A2 x D4 --method oracle --format table": (
        0,
        "6f69822ae21a205a6646292ee59be3f2e7d91cef91aa73a3d36ebbd85d03536b",
    ),
    "count A2 x D4 --method oracle --format json": (
        0,
        "9be26b9983b90a2d6f9e96e0506eadf915180a60c17cbf7e62898505b50b01b0",
    ),
    "classes A2 x D4 --format table": (
        0,
        "1cacdf6a4aca95fd97be1af7bd4c47dc58f545aee0f2c181917ff5cb7817913e",
    ),
    "classes A2 x D4 --format json": (
        0,
        "123f4f4960ac1b1e5cac416d7cc077cfcd2966d43eeb24541e9b123566472765",
    ),
    "classes A2 x D4 --method oracle --format table": (
        0,
        "24dfd931e7e56f42a937aefb47b6943a3463ea31afb319b943800c13a6d69226",
    ),
    "classes A2 x D4 --method oracle --format json": (
        0,
        "3545303ced5833650832fd9268c22b129707c37e2673c96c0c26d134a1e5489b",
    ),
    "verify A2 x D4 --format table": (
        0,
        "b272b0c403fd1ee122c364ef1f919054c395b9f8c2b18ddef85de3d39cf32952",
    ),
    "verify A2 x D4 --format json": (
        0,
        "da13c9dd90514dc414829e83603f058a27f0f3a0d4c6fb21391dda1a60cd5be6",
    ),
    "count A1 x A1 x B3 --format table": (
        0,
        "c621a32c06b375197b7b65f6f01909718c22928a5fb426f29f8dfcc0a1df84e8",
    ),
    "count A1 x A1 x B3 --format json": (
        0,
        "e61c411360902ff30dc2a1db9d8abf238579ef5ac7b5069f2fa09920b58459d0",
    ),
    "count A1 x A1 x B3 --method oracle --format table": (
        0,
        "844e332378e2bf15b0170620c866f3934f24b474350f0d0b9fc18ffe35609fbf",
    ),
    "count A1 x A1 x B3 --method oracle --format json": (
        0,
        "168602805431fdd99e0d11cd6e92243d337a8c0ff5c346b15c18d1c79bb37380",
    ),
    "classes A1 x A1 x B3 --format table": (
        0,
        "64c4e7fd24dba0532b0abaeca3903c9cb90ac4a37d56a2f7503743f0a4dd6bef",
    ),
    "classes A1 x A1 x B3 --format json": (
        0,
        "2959ab9dc76133637f441b3a16513d255f496c1c889f187467ae02e60592b4ef",
    ),
    "classes A1 x A1 x B3 --method oracle --format table": (
        0,
        "0cce3f49b0f0717c56fba327daa9ab4a4681e63a16d4dfdc5a6cfe979d2aa074",
    ),
    "classes A1 x A1 x B3 --method oracle --format json": (
        0,
        "cea34b5acd945d17cf8086d7c42e5582e8ca9dcf21e78eab8e552c9bd017eec8",
    ),
    "verify A1 x A1 x B3 --format table": (
        0,
        "28436a3d50d17b8567342b9748a92578fe55d2cba96982d7ec531722ebbea3ea",
    ),
    "verify A1 x A1 x B3 --format json": (
        0,
        "ef211f16c836e24c802afb9f8466f9f3f9171d9af0496db07cb901e59692ec67",
    ),
    "verify --all-small --format json": (
        0,
        "2507183c522857fd12ddee56cbecdd2b6cc5a9164b172b2a7fff7702042ad288",
    ),
    "count B5000 --format json": (
        0,
        "3d551a0f9f577243ba90531e45f0385d3bbf8d92143757f9d83760f57f933b66",
    ),
    "count D5000 --format json": (
        0,
        "371f1a642694dfbb19e7e1eb7104da124ecf39cf00d49ebc1c239ad2a33d9186",
    ),
    "count D4999 --format json": (
        0,
        "19410f9ec0ba157d943bd492e4441c515041759659b487867b9b9d3879b2f755",
    ),
    "count B6000": (
        3,
        "56e1b7876b8f89e2b821e454929003a9bca3c9469083fdf1d77f8b6975c230c0",
    ),
    "classes B27": (
        3,
        "ebbb877151bd95840bf45b5f4549e09a61002736f1c8fa8911b64e4e9194025b",
    ),
    "count A1000000": (
        3,
        "4d64ba89acc906aa16160c2efa48e3ed8f17506f0b1e5bfebc1ce6eb350cbce9",
    ),
    "count E9": (
        2,
        "5a77d29f92bf43bc89a0196592f070fd3277915002d21ec7395eae7061bf9972",
    ),
    "count I2(2)": (
        2,
        "78f85da761b8877322db969c3a8224c8d0e0b0c4987eeaa53f4c3a4f418030f0",
    ),
    "classes I2(300) --method oracle": (
        3,
        "627e41950d77bc823e1488ea47e979ad2e68107b004d9999702dd918888a4a15",
    ),
}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_pinned(argv):
    assert run(argv) == GOLDEN[" ".join(argv)]


def test_matrix_covers_every_exit_path():
    codes = [code for code, _ in GOLDEN.values()]
    assert len(GOLDEN) == len(ARGVS) == 170
    assert (codes.count(0), codes.count(2), codes.count(3)) == (140, 14, 16)


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv in ARGVS:
        code, digest = run(argv)
        print(f'    "{" ".join(argv)}": (\n        {code},\n        "{digest}",\n    ),')
    print("}")
