"""The command-line contract: argv, exit code and stdout sha256 of each `ced` command.

Two tables: `GOLDEN`, which tests/test_cli.py replays in process, and `SLOW`,
rows of a second or more that tier-1 does not replay.  tests/replay_interpreters.py
replays both through a command such as `python3.10 -m ced.cli` or the installed
`ced`, and `tests/bench_pairs.py --cli` times `SLOW` rows on two revisions.  Only
the standard library is imported, so an interpreter without numpy, pytest or
hypothesis can read the tables.  Each argv is split on whitespace.
"""

import math
from fractions import Fraction as F

#: Within 10^-200 of the lower window end 3 - 2 sqrt(2) for d = 2, on the inside.
NEAR_EDGE_LAMBDA = F(3 * 10**200 - math.isqrt(8 * 10**400), 10**200)

#: Within 10^-100 of the same end: at rho = 10^-D, `decide` runs every depth up to 4096.
EDGE_LAMBDA_100 = F(3 * 10**100 - math.isqrt(8 * 10**200), 10**100)


#: argv -> (exit code, sha256 of stdout), recorded before the output code was
#: folded into one emitter; every subcommand and output format is covered.
#: The two `simulate tree` rows were re-recorded when the tree engine moved
#: to level-synchronous Philox streams.
#: The four `simulate line` rows were re-recorded when a zero-count row's z
#: became -inf (it was +inf for a frequency below C_k); only those z cells moved.
GOLDEN = [
    ("decide --d 2 --lambda 1 --rho 1", 1, "12af5f7c46b91101036c2b4869c5a958e8d15031229d4f34a348e584cf66c66d"),
    ("decide --d 2 --lambda 1 --rho 1 --json", 1, "955b47d7b19cb9331a046db485e090022d63649486916422ac9d22b2a4043aaa"),
    ("decide --d 2 --lambda 1 --rho 0 --json", 0, "9f11a106020d760a7a30f9ecba1d12a7c35e5358a2537be88dae42edf109b564"),
    ("decide --d 2 --lambda 1 --rho 1475/8192 --max-m 2", 2, "5fb601d27b195d98b3e914fed547619f89b3e1a6fe1086e95d6bbea8ad4fc368"),
    ("decide --d 2 --lambda 1 --rho 1475/8192 --max-m 2 --json", 2, "8ebc2480fa6d0411f6ff56f46430ba0f44ed65ad40e4b51fa4974ac5688213af"),
    ("phase --d 2 --lambda 1 --rho 2", 0, "12dea9e57a4dd411aca6129c9025021b04d4b8c2a760fd78437579297657ae11"),
    ("phase --d 2 --lambda 1 --rho 0 --json", 0, "ff177459546047300b14e1924965ca523ae3aed9b97c83fa440f357ff456fc59"),
    ("rho-c --d 2 --lambda 1 --tol 1/32 --certs", 0, "0e9c9da6fe82d237dfb4ae472e1b3f73c98b78abcca841064ed64203f8f5317d"),
    ("rho-c --d 2 --lambda 1 --tol 1/32 --certs --format json", 0, "33218f2099181e39842fb42f043c279227605a30e297932b15203142b5dba42f"),
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --certs", 0, "f65967f39d44891ee86be97441f5180f14409ec6875b7b2ab7962baefe14d361"),
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --certs --format json", 0, "92eb0e7551fbed891adba5c8e9659c505447326cc89915befd020f8f6fcdb838"),
    ("rho-c --d 3 --lambda-grid 1/2:2:3 --tol 1/16", 0, "70d8f20b4ad52eedcbcd2adef409a5bfddec16c741726e129481e44c30edad4b"),
    ("catalan --lambda 1 --rho 1 --k 2", 0, "2d4c5b157d53b098dd1f701c1deeb4b5c67013096f1da1f83f0d8735711a684a"),
    ("catalan --lambda 1 --rho 1 --k 2 --format json", 0, "86d4c84aa143ef855325fe98532c3aaed4faceb30e28e8467492ad75b907afc4"),
    ("catalan --lambda 3/2 --rho 1/3 --k-max 6", 0, "cb8d5958b991116ed770eb19cd653e732878eab0fe01998ab2b9c47dbd0e5dd5"),
    ("catalan --lambda 3/2 --rho 1/3 --k-max 6 --format json", 0, "bf5e6c0dd28e8e052ce9ac0e26eb358670e379ec6facee68cac4df7f038d0a46"),
    ("catalan --lambda 1 --rho 1 --k 2 --z 2", 0, "aa5f627d286f1f0c2e89b2df4694c4932f8fe25d7cafbb84d354146eacfab14c"),
    ("catalan --lambda 1 --rho 1 --z 3/2 --k-max 6 --format json", 0, "7fccb20e0fc5d24297f8822af684c532ea0dc91ba329a145e23b398408bbb649"),
    ("catalan --d 3 --lambda 1 --rho 1/2 --mode capped --m 2 --k-max 5", 0, "2ca4c7cd9b5f5183c734759d4f702a1e082b085860eec9fc1affd48fb42d85dc"),
    ("catalan --lambda 1 --rho 1/2 --mode flattened --m 3 --k 4 --format json", 0, "562297ce79036ec0be4bac262c113aa7e3af4f99ce6178cd2412aec7362094a3"),
    ("catalan --lambda 1 --rho 1/2 --mode flattened --m 2 --z 2 --k-max 5", 0, "34ef882f3d3934c3dc183555e40d746534b8ce995f7ae5c4a666604a13cc0bea"),
    ("simulate line --lambda 1 --rho 10 --k-max 3 --trials 200 --seed 1", 0, "7896368a75e5f1e30280fd6f6261cbeae6bfd0a3cd49e0007dbbf0901a320576"),
    ("simulate line --lambda 1 --rho 10 --k-max 3 --trials 200 --seed 1 --format json", 0, "188d7ca8fa33c7e48ce945ba8c3c7db380753655be09b8ee59ea6d090a609dbd"),
    ("simulate line --lambda 1 --rho 1 --k-max 4 --trials 300 --seed 7", 0, "dd5b13ea7cf44aaed0a7c2af4458b57289a3cce3ae3cdf92e50e6bbd6f4cb432"),
    ("simulate line --lambda 0.5 --rho 1 --k-max 3 --trials 100 --seed 1 --allow-decimal --format json", 0, "04e1df36750560c58ff410b4f953c634b622dfb1ea3b510e8fa77fe9b6310fe7"),
    ("simulate tree --d 2 --lambda 1 --rho 1 --depth 3 --trials 200 --seed 3", 0, "2db4d6eff3df65fb2aad1a5459187018d33697636ca39eade1873b87a310f87d"),
    ("simulate tree --d 3 --lambda 2 --rho 1/2 --depth 3 --trials 100 --seed 5 --format json", 0, "1cf95ebb9d95569c5b57d607be8971b4d4c924d81e07f787734b50a439f7b614"),
    # Supercritical: almost every cap vertex has a parent that never turns blue and
    # draws nothing; recorded while every cap vertex still drew its words.
    ("simulate tree --d 2 --lambda 2 --rho 1/2 --depth 8 --trials 1000 --seed 1", 0, "aac7cd5fb8cb0d8987900a326e1892cd3d4223e36e5ed580b2976e1127a1428c"),
    # Levels cut into many pieces (22, 51 and 15 Philox calls), recorded while
    # a piece's children were still drawn before the rest of its level.
    ("simulate tree --d 3 --lambda 1 --rho 1/2 --depth 6 --trials 2000 --seed 1", 0, "6f814ab5191bacdaa4178012468225b7dd9c093f7682c540445b8272a075aa9a"),
    ("simulate tree --d 4 --lambda 2 --rho 1/2 --depth 6 --trials 500 --seed 1", 0, "bb6692e5de4eb05c9f8db5dbac6a9c4926cef322b2f950a95cb95695a84aa4e6"),
    ("simulate tree --d 2 --lambda 1 --rho 0 --depth 6 --trials 3000 --seed 1 --format json", 0, "3d5ad905b826ca2b9450dc7769eb0529f8333a5d06890deb2ddb4c81d53da1cc"),
    ("decide --d 2 --lambda 1 --rho 1/0", 64, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Deep brackets (tol 2^-100, m = 32 and 64), a below witness at level 1
    # and the two exact ties b_1 = 1 and t_0 = 1, recorded with the Fraction
    # kernels before the integer continuant kernels replaced them.
    ("rho-c --d 64 --lambda 1/191 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "1685550ed4a17864ecdeb535c4e51c538508e751c5ace62d7bf726a387d30820"),
    ("rho-c --d 3 --lambda 5/2 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "e3462a4cef67dd05d978caee3f459e87b98ca0f851cc50ad250ab01b4d35eb88"),
    ("rho-c --d 2 --lambda 1 --tol 1/1267650600228229401496703205376 --certs", 0, "8dae6f25b279dab235d38b5c8de4069ad6ce36cb0dbd2214b7b9c3e0c79b5d76"),
    ("decide --d 2 --lambda 2 --rho 25/256 --json", 0, "cb5ff8d44b10588ed08fddd892e64afa89114b4c304dcf62b723b4c0c7897cbc"),
    ("decide --d 20 --lambda 1 --rho 1 --json", 0, "facbeea5883178097dcf4c54005da05d7e5d1718ef41bf65e777794cc53c7c8c"),
    ("decide --d 6 --lambda 2 --rho 1 --json", 0, "99dfdea74a28be09ef8b3c6634cb6be0605d0e061200d9dde12f27767c9eb71f"),
    # Two more m = 64 brackets, near the window edge and at an interior
    # lambda, recorded before the kernels moved onto one integer context.
    ("rho-c --d 8 --lambda 1/21 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "4301ccff4cf4581b5f45ef06a21fce5cdea24d171455887522b64d710c6a89e1"),
    ("rho-c --d 4 --lambda 37/4 --tol 1/1267650600228229401496703205376 --certs --format json", 0, "2e137a26e2e0a0deb04af4927182ad55fa4ea4163b6deea18bb05486018f9561"),
    # A lambda too close to the window end for the earlier enclosure test,
    # which refused it; recorded once the window test became exact.
    (f"rho-c --d 2 --lambda {NEAR_EDGE_LAMBDA} --tol 1/64 --certs", 0, "1a67ca42931b95c78034a4fafcb5bb4572f535388309bdece20948635d58b80b"),
    # A midpoint comes back Undecided at --max-m 8, so the bracket stops short
    # of the tolerance; recorded with plain bisection before the estimate.
    ("rho-c --d 2 --lambda 1 --tol 1/1099511627776 --max-m 8 --certs --format json", 0, "6bca5b9344ac962e7202289fdd44e126879f789289b39159f31fa873e6d4d321"),
    # The exact recurrence at depth through each caller (tables, one C_k, partial series,
    # the tree's float column), on progressions G_i with content 1, 14, 14, 2, 2 and 1;
    # recorded while its common denominator still carried K! and an extra G_1.
    ("catalan --lambda 3/2 --rho 8/9 --k-max 180", 0, "27c76a469e7d6bd866b28d890ba7f6b1a5d108b963702002899c5ed11f184718"),
    ("catalan --lambda 5/2 --rho 300000001/1073741824 --k-max 60 --format json", 0, "e05e46e0e0c5321d4cdb98ee1083da68e477ea7f394fb63dfb62b1affb6c4475"),
    ("catalan --lambda 5/2 --rho 300000001/1073741824 --k 40 --format json", 0, "058a4753f8df01d914a8f3a6520563f066cf9dbca0a6c8cc20ce8ca49efa2b2f"),
    ("catalan --lambda 5/2 --rho 80000003/1073741824 --z 3 --k-max 120 --format json", 0, "d847db07bcd6730f363fb4328a12addcb520d026c196ed058a4a3dc9220fbe8a"),
    ("catalan --lambda 1 --rho 8/9 --z 1/2 --k-max 100", 0, "f817d53cf217a962ffbff8088e2488809d12b385dc9eaa2028d58ace18ef9ec9"),
    ("simulate tree --lambda 1 --rho 3 --depth 200 --trials 1 --seed 1", 0, "9cb6ed42958774b341ba4a17b942acae3d12bb8b2390ea588681e60ef402bd81"),
    # Recorded when the interpreter replay's own command list was folded into this
    # table; its commands had given equal stdout on CPython 3.10-3.13.
    ("decide --d 3 --lambda 7/2 --rho 1/10 --json", 0, "fb4426ef70ba3212afa00ce509f2db70bee44a4421a459ac9c2d422d4a55bac7"),
    ("phase --d 2 --lambda 1 --rho 1/3", 0, "ada847d46c78d03e61d4c5b10f7d3a32e8055420a905864374931d190179d3a9"),
    ("phase --d 4 --lambda 1/2 --rho 0 --json", 0, "531c165c122e79e058c8c09b389e0e16540ceefe825dcc84dd4346d4a81ce846"),
    (f"rho-c --d 2 --lambda 1 --tol 1/{2**200} --certs --format json", 0, "5a0cfcfae4d3f596297ec5493b427d57d4ec089e40feb931ac3270e237d0ea53"),
    # next to the window edge at 2^-200 both cell ends settle at m = 1024
    (f"rho-c --d 3 --lambda 197/20 --tol 1/{2**200} --certs --format json", 0, "d16fef416d98849dc9c565294c4fbc1011e411ad44c4e4f80de2a353198b6882"),
    (f"rho-c --d 2 --lambda-grid 1/4:5:5 --tol 1/{2**200}", 0, "15a91f8c1b46f5794783da74672c422fc8d365e59cb6fa43bcf5b2043f5cf7b2"),
    # CSV cells holding , and ": the certificates' JSON, quoted by the emitter
    ("rho-c --d 2 --lambda 1 --tol 1/8 --certs", 0, "07fd7e11deb2a1a4a4e2f994a1d3e45bdb8fde7a247b8e0b1407059787e26e08"),
    ("catalan --lambda 3/2 --rho 1/3 --k-max 40", 0, "5ac6fc27e7fdae27c03fe26789ed9f4b3f233f9c2e38fa8b850cac44b6ae8657"),
    # the partial series' value has more than 4300 digits, Python's default int-to-str limit
    ("catalan --lambda 3/2 --rho 300000001/1073741824 --z 2 --k-max 110 --format json", 0, "e933653191181b3cc0df38277f58f720120ee9c1e2102f894bd29980fd295d50"),
    # lambda outside the d = 2 window on each side: the outside-window certificate, recorded
    # before each certificate class named its own JSON kind
    ("decide --d 2 --lambda 6 --rho 1 --json", 1, "794308c0bfd22abe849d40b1f8dd953da4aa5c029d0117a342c19ad3332ef9b9"),
    ("decide --d 2 --lambda 1/10 --rho 1", 1, "e84bac10a6134820ab19d014740abcfe2ede691ff288777f67dee88ab7bb0aca"),
]


#: argv -> (exit code, sha256 of stdout, time limit in seconds), each a process of
#: up to about 11 s on a 2-core Xeon; a row past its limit reads `timed out`.  The first
#: eleven were recorded when the installed-script CI step's own checks were folded
#: into this table, with the limits those checks had (60 s where one had none).
SLOW = [
    # next to the upper edge at d = 1000 the float roots still differ at m = 4096: the last two pick the cell
    (f"rho-c --d 1000 --lambda 2467749743/617319 --tol 1/{2**200} --certs --format json", 0,
     "d8fa36c28ce5e2b40542d0653ab138e9f07a1e2e50b28954c266c8a84f87c2d4", 30),
    # lambda = floor(0.97 (4d - 2)) next to the upper edge: hi has 28 integer bits, so the estimate runs on rho / 2^28
    (f"rho-c --d 4294967296 --lambda 16664473106 --tol 1/{2**200} --certs --format json", 0,
     "f9bf4e338f1b8341d5d76041506423048a11c7da2f40af50e519f27e369b5071", 30),
    # one end of the estimated cell certifies, and bisection in the gap it leaves stops on an Undecided
    # midpoint: "status": "unresolved"
    (f"rho-c --d 1000 --lambda 399799/100 --tol 1/{2**200} --certs --format json", 0,
     "5e5428fcfbc59e491a63025a94c509d4f798d4f86a1a9e3d736150877ac1d6de", 30),
    # a little further from that edge: 159 decides, 103 of them at depth 4096, before an Undecided midpoint
    (f"rho-c --d 1000 --lambda 399777/100 --tol 1/{2**200} --certs --format json", 0,
     "046ad5cff1a7e46e73415632cfcfcf126cc48f5b613139608bd2b54a1bf1d179", 15),
    # the process pool pickles each grid point's bracket: the same stdout at one and two threads,
    # at 1/32 and at 2^-200, where the estimate's fixed-point polish runs on about 240 bits
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --threads 1", 0,
     "1a6559b3a3b2433a3d0b659c913bad6381ed769f3e396eb5e17152403d4a329f", 60),
    ("rho-c --d 2 --lambda-grid 1/10:6:5 --tol 1/32 --threads 2", 0,
     "1a6559b3a3b2433a3d0b659c913bad6381ed769f3e396eb5e17152403d4a329f", 60),
    (f"rho-c --d 2 --lambda-grid 1/4:5:40 --tol 1/{2**200} --threads 1", 0,
     "55fd7e48bdef0a61470c175b85ee592382bf317f1cf4937db05c2414bb104a8e", 60),
    (f"rho-c --d 2 --lambda-grid 1/4:5:40 --tol 1/{2**200} --threads 2", 0,
     "55fd7e48bdef0a61470c175b85ee592382bf317f1cf4937db05c2414bb104a8e", 60),
    # the three K = 800 paths through the exact recurrence: the line's float column, the exact
    # table and the tree's float column
    ("simulate line --lambda 1 --rho 1/3 --k-max 800 --trials 1000 --seed 1", 0,
     "e88e006eedaa7f2c15c6d4c9d7db9ee5e6e5c810ce9a36f5daf662e57a08c7b6", 60),
    ("catalan --lambda 1 --rho 1/3 --k-max 800", 0,
     "7052643a46e3508b4739dbaf1875f7b9515d4833f49b3ce86136723fc9cab272", 60),
    ("simulate tree --lambda 1 --rho 3 --depth 800 --trials 1 --seed 1", 0,
     "d00496e6b9417633ceff3e3017854047a002515eb060bd1db8ed4419c32c3c1b", 60),
    # The Baseline's other slow paths, each limit at least 3 times its recorded time (in
    # brackets, one fresh process each on a 2-core Xeon).  Ten near-edge brackets at
    # d = 1000, three of them unresolved; the bisection's bytes (3.4 s).
    (f"rho-c --d 1000 --lambda-grid 3997:399799/100:10 --tol 1/{2**200}", 0,
     "56f99b864eb801d465f910717a5faa6387240a4a6c8c17a105cde4bc9e1aab0f", 30),
    # Undecided after every depth up to 4096 at a 1000- and a 3000-digit denominator (1.3 s, 7.1 s)
    (f"decide --d 2 --lambda {EDGE_LAMBDA_100} --rho 1/{10**1000} --max-m 4096", 2,
     "bedf1806f83743700e0776e68f6c07e9091f951357b0ed1c7e81fe4c72b305d9", 15),
    (f"decide --d 2 --lambda {EDGE_LAMBDA_100} --rho 1/{10**3000} --max-m 4096", 2,
     "c5a216e7fb9f67654061c05726545eec4f21e4a5b44769a0c4fa0ed3325d85a9", 30),
    # exact tables whose reductions and printing outweigh the recurrence: a deep rho (7.2 s)
    # and lambda = 10^-48, where D_K has 179 485 bits (11.0 s)
    ("catalan --lambda 1 --rho 12360736211/68719476736 --k-max 400", 0,
     "711826972cfca5270a95171a95551a285f5e2254bc5de7ecf8bbc35f07c16c62", 60),
    (f"catalan --lambda 1/{10**48} --rho 1 --k-max 200", 0,
     "823161e4d48b6293c5d285f6b3b5e2ef6cd93bd975eff96fe4915e1bc9471fda", 60),
    # long line trials: k_max 800 at lambda = 5, rho = 0 (1.8 s)
    ("simulate line --lambda 5 --rho 0 --k-max 800 --trials 10000 --seed 1", 0,
     "5cbc9f48b0fa101900abceb2302f1f015b855f64f2bfeefa2310d2108396d749", 15),
    # a 1000-point grid at 2^-200 on one and on two processes (2.3 s, 1.4 s)
    (f"rho-c --d 2 --lambda-grid 1/4:5:1000 --tol 1/{2**200} --threads 1", 0,
     "e1e565ebc4485c52946851c7a3241bcddadf65ed580f07ef90199177d314fb03", 30),
    (f"rho-c --d 2 --lambda-grid 1/4:5:1000 --tol 1/{2**200} --threads 2", 0,
     "e1e565ebc4485c52946851c7a3241bcddadf65ed580f07ef90199177d314fb03", 30),
]


def shown(argv: str) -> str:
    """An argv with each word of 40 characters or more cut to its first 12, for a report line."""
    return " ".join(a if len(a) < 40 else a[:12] + "..." for a in argv.split())
