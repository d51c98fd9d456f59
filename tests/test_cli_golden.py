"""Golden CLI outputs.

Each case is one ``crowdtier`` invocation, run in process from the
repository root (reports embed the ``--graph`` path as given).  The
digest is the sha256 of ``f"{exit code}\0{stdout}\0{stderr}"``; the
values were computed once from a known-good build and are fixed here,
so any change to an output byte, an error message or an exit code fails.
"""

import hashlib
import pathlib

import pytest

from crowdtier.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

GOLDEN = {
    "graph-info --graph tests/data/ex6.txt":
        "48533e70a04cd9c730d1e87d1cfb18c7df3feeec2e3ff1a215530dcab9e7477d",
    "tenm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv":
        "beb568353316cce290abd1cb881dd3818290210cb568d9efd2d4b06b3be48b71",
    "tenm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3":
        "9f912b54edc36f4a606503f2977df053a6f1b939204972e0b136aab322f26562",
    "ntbfm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv":
        "2de8840507e5a1cd03021bf965d65fa197372e9ceacf764d0892d518fc8a7e83",
    "ntbfm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3":
        "75e14b8dbfd376927554fc07c942745ccd57ba114a1705ded0311d25d0bbbbc4",
    "psm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv":
        "7e9a133ad603aecc2b6aa713bb421d19fa7a415432cceb349ba6140b04a1adbd",
    "psm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3":
        "05c3a64e84c26a1d14e6d30c6705fd46d64d4771d5b987bc47c87ef7f4aa32ad",
    "tenm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv --delta 3":
        "e318c41612fbcf027670dee7f249736ac46c401e128afe04f90f87b18baff3cb",
    "tenm --graph tests/data/ex6.txt --budget 9 --cost-range 1:5 --delta 1/2 --seed 17":
        "54e8935896540f20da067fb90b0a7e88b78f39231c2d37b2991090b42be45f0f",
    "tenm --graph tests/data/ex6.txt --budget 12 --cost-range 50:20":
        "c7c3c900f2c816d65fd8cd48080f7c4d7981587c900bd25e8f0148ff75f62619",
    "ectai --devices 12 --f 3 --g 3 --seed 0":
        "ab721cfd83ac5b4d3c07c66e86c3cda25e66f4fb2275d71bccaed8d240db4074",
    "ectai --devices 12 --f 3 --g 3 --seed 3":
        "4295d0641fa62f8df429d706d1961a8e4a9a122ffdd5ffd2d134b0cef235d184",
    "ectai --devices 12 --f 3 --g 3 --seed 17":
        "b0d9e5147841704189cf232135d6184794959905ee5f1912ac91ff7afb298dd2",
    "ectai --devices 20 --f 4 --g 5 --dist normal --mu 0.4 --sigma 0.2 --seed 3":
        "beffd91ec4e1f7bf2c04bfd52fca5a7718b910cdfbb4e4a382b549ff765aa193",
    "avr --devices 12 --f 3 --g 3 --seed 0":
        "368e9a9118efb9f95e66e5c4b5c937dfc2164874ff71010d9348a9e70c0e84f9",
    "avr --devices 12 --f 3 --g 3 --seed 3":
        "d3a7029fadc08a075096122d7b81a7d1e37155856e1b59a97d43b37a1f2ad43e",
    "avr --devices 12 --f 3 --g 3 --seed 17":
        "73bf010651ea964f742effe488bb3a6df2a12af4d8e4f836ad687c83c1738b0b",
    "avr --devices 20 --f 4 --g 5 --dist normal --mu 0.4 --sigma 0.2 --seed 3":
        "c90f531417497d049c4b52441f0445f6422cafdb06f48c173619c70e4aace279",
    "ectai --devices 5 --f 3 --g 3":
        "b3cc7bc574548dd3e28fe245d4e44c4733d3bb5f9a5e2ee59d8837841987af1c",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 0":
        "c80a475304d5817becda50da65289961deb346602c47063413a5ed99d8cfbacc",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 0":
        "a95bbc6fc9998cd1b978ba7d24b2be3621a278ce859cf973b3edc01e249f3304",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 3":
        "0eea752802cfbbcca929ca7b9bc728d213c5e99a17e5b40cb2c9d7adabac76e9",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 3":
        "9a501933db9c3a21d0d0073bb08a8c86b37a1574705eca1c073f026f8b81f3f4",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 17":
        "50f094dc56ca879dd90d22bf42f2884576145db71162be418f342bd0f3f42f39",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 17":
        "654866a11b44bad4b373c7048d12ab2442c93b03af952820bae505b88c2b2af2",
    "wipd --num-tasks 1000 --bidders 100 --seed 1":
        "1a330d136f12e709e53bee694ba31f953ef287ee1a43a39d1d08d27ad8b1541b",
    "greedy --seed 3":
        "3d8e80593a467a3f74d3e50a5a91a3a2a82116ebd05a6363ac9a3142384dd991",
    "estimate --degree 6 --p 0.3 --estimator expected":
        "546e7c159d9360885415c58af0289bdcca479fb6d71f3bf0e5c05b8f4ff36dac",
    "estimate --degree 6 --p 0.3 --estimator at-least-one":
        "01357075cde6003051033bce11b59e8c52c7b04ac313ae1447fd3babef2cf9f2",
    "estimate --degree 6 --p 0.3 --estimator chernoff":
        "c4b11a3c86192eda0a02abec23b629cc9a07cd967770b7e9b564e398f0417689",
    "estimate --degree 6 --p 0.3 --estimator lemma1":
        "6c7a25ce4260f55d47f28f7338097720e63945ed34b28191a7942ff218dd2c6a",
    "experiment --mechanism tenm --rounds 2 --seed 0 --deviation-frac 0 --n 20":
        "321161d7c02dd646839607c564f29f49c592b5dbecf73a72f89c511514e6d1f0",
    "experiment --mechanism tenm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20":
        "44c19873696e92ca73931fa00d7e90a360d3ab731220dd26634acbbe2841454e",
    "experiment --mechanism tenm --rounds 2 --seed 3 --deviation-frac 0 --n 20":
        "4add5a35743f0e29d739ba61b71eb235e41c48f6338d82655a94fef75958448e",
    "experiment --mechanism tenm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20":
        "d8c15517165867df4a403427375e8f10e774adcba7eaf39ca02f25ccfe42b8d1",
    "experiment --mechanism tenm --rounds 2 --seed 17 --deviation-frac 0 --n 20":
        "49a76d8fde5afd91dd0ae72c40ee51d1dbbbdb85e3e10a913cb8641b9638032b",
    "experiment --mechanism tenm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20":
        "5f9695e66d0f1ddf227a89b4ed3f123019b7a401fb8b9923f4b1afa8b824bd10",
    "experiment --mechanism ntbfm --rounds 2 --seed 0 --deviation-frac 0 --n 20":
        "c8175d470ea5e03fd0a3a9e34d6899ea0fded59304fcfb03cf6c13c4a5291cb8",
    "experiment --mechanism ntbfm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20":
        "2c33ce09154d7cf658aa7a77b30ab04a9a8678468e8d3cd85bc3a199eb03f55e",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --deviation-frac 0 --n 20":
        "c9373b638ec24faa3b031ceef70130fd6941d0be407782f797d1664ba2104053",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20":
        "8c67775c1fdd19b1d623ac85d1a4e32ca02f207753493800248ea80d814d0ccc",
    "experiment --mechanism ntbfm --rounds 2 --seed 17 --deviation-frac 0 --n 20":
        "a71e89d59588becd619745bac81d5ea85f10652034d9190a465cb78c45a13cb7",
    "experiment --mechanism ntbfm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20":
        "6d275c11b7c06e8dea20cf40638be89010fa4bfd00d103796e95238096f19fff",
    "experiment --mechanism psm --rounds 2 --seed 0 --deviation-frac 0 --n 20":
        "0abb75bf70b85e7575dadb44d229268655051b523a143c5496274ef197503737",
    "experiment --mechanism psm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20":
        "c2e03db2f4a91675272b172f91b7fe0d0436884e98799ee4f984f21c7058267c",
    "experiment --mechanism psm --rounds 2 --seed 3 --deviation-frac 0 --n 20":
        "b042f3b894b67b74ad05db93d4916e41bbd0c9b354cee688c2bcbeb529b844bd",
    "experiment --mechanism psm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20":
        "dade4b2f049c88f07911df7a268d08cf82c278f089494392267ba43b3ac63aa1",
    "experiment --mechanism psm --rounds 2 --seed 17 --deviation-frac 0 --n 20":
        "c9415b5e000398a3cc7c41061fcc4bb4b8c657bd7ea9ef16814e50e58a28a731",
    "experiment --mechanism psm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20":
        "475231dfe9354d67239e56a124193ff30dc0ff1040bb2e5b7eae914c9e1c08a0",
    "experiment --mechanism ectai --rounds 2 --seed 0 --deviation-frac 0 --n 20":
        "bfd1a1dcac10477e9af1adb9cc3866a0d0aecedbf203cf41c1b578402007e982",
    "experiment --mechanism ectai --rounds 2 --seed 0 --deviation-frac 0.3 --n 20":
        "e74ac3681352eb188022313855100184b6579d595e8e6be5367c34164d58c32b",
    "experiment --mechanism ectai --rounds 2 --seed 3 --deviation-frac 0 --n 20":
        "5bdc6aa533c54476d0a062ee13987821faf33102205fd2680b8fe977d0b662e4",
    "experiment --mechanism ectai --rounds 2 --seed 3 --deviation-frac 0.3 --n 20":
        "c94e97f0dfeaac41c6df5fd932c5df13953643d3e0cf54e8acb9d707908be691",
    "experiment --mechanism ectai --rounds 2 --seed 17 --deviation-frac 0 --n 20":
        "8fcf4a1ab5bbc45017226e42451e08431b1f711425b3d29c4348abd975fd7aad",
    "experiment --mechanism ectai --rounds 2 --seed 17 --deviation-frac 0.3 --n 20":
        "4e1408a2f234678a36b06fb52c9e07738846e212f35ef5863c4c81fd166f983e",
    "experiment --mechanism avr --rounds 2 --seed 0 --deviation-frac 0 --n 20":
        "bd1677d8b07c0458294e547a58e1e45eae2938623185a3fd1a1818e41fd1cae3",
    "experiment --mechanism avr --rounds 2 --seed 0 --deviation-frac 0.3 --n 20":
        "2a67f00472e8df66f2967578eced4be014dee9ac12b98d4ee5b6cca12ad219af",
    "experiment --mechanism avr --rounds 2 --seed 3 --deviation-frac 0 --n 20":
        "094f0c58983054f514bea980b142bc8aad58e07c3df9c9fde7ab960e76fd987c",
    "experiment --mechanism avr --rounds 2 --seed 3 --deviation-frac 0.3 --n 20":
        "eeb3515b76386b97db3a31d11fd1aac7544a11c15069e3e34367b4563ad99f9e",
    "experiment --mechanism avr --rounds 2 --seed 17 --deviation-frac 0 --n 20":
        "f6b79e8729d57d234e2ba8c0075771ea0f3e56dabd33e62084bba91e54fd7635",
    "experiment --mechanism avr --rounds 2 --seed 17 --deviation-frac 0.3 --n 20":
        "3d5028fb5ff761b6a2e653671aee312f18b7d846c1c50e6b959eea7c222d97de",
    "experiment --mechanism wipd --rounds 2 --seed 0 --deviation-frac 0":
        "15fb7e110c67f4c955a1da372b070dd3c0e81b71211946fb3d4014a05e4fdb24",
    "experiment --mechanism wipd --rounds 2 --seed 0 --deviation-frac 0.3":
        "fbaac85cd87f15878dab6b0cfbc2f2099f7062421cac7183207af9b7f774fdb5",
    "experiment --mechanism wipd --rounds 2 --seed 3 --deviation-frac 0":
        "366ed8a7d4214782875fb9a12b996095b5f340891cc9bec48efe6559d186714a",
    "experiment --mechanism wipd --rounds 2 --seed 3 --deviation-frac 0.3":
        "2b5a1b4c5df22797955f7b647d8fd3142ccda6a5aef8e24f006e4a26b98d1308",
    "experiment --mechanism wipd --rounds 2 --seed 17 --deviation-frac 0":
        "e644258e3cb36334d42d64843d11e03503dc597863b931078fe528a83292e4cb",
    "experiment --mechanism wipd --rounds 2 --seed 17 --deviation-frac 0.3":
        "8aae2580d6a16b5b0845d9a94585fcb5ea14dc0089d7d0243a0203a88cabc6fc",
    "experiment --mechanism greedy --rounds 2 --seed 0 --deviation-frac 0":
        "45a4b272abc15654263b78a97af0b86d8b9156c091d0ad2d79fa70a6bd75fbe4",
    "experiment --mechanism greedy --rounds 2 --seed 0 --deviation-frac 0.3":
        "f291767da94bdf7f7479ae229ee022862cbc38625fb9456b4bffdb427167deee",
    "experiment --mechanism greedy --rounds 2 --seed 3 --deviation-frac 0":
        "05779cbbd0e481fa7a0e89655af1d4e2292b0b806c6d6d3e00c987dde1ada963",
    "experiment --mechanism greedy --rounds 2 --seed 3 --deviation-frac 0.3":
        "a8e4290d2844b95716ef340d122b0e47c6e14d43f7f5b01544764ff16c42c8bc",
    "experiment --mechanism greedy --rounds 2 --seed 17 --deviation-frac 0":
        "0ae0018d0e5891d5ffd70ffb086c56b85c8c1fd67f99ae600013bd171afd6d29",
    "experiment --mechanism greedy --rounds 2 --seed 17 --deviation-frac 0.3":
        "23eb12728592adcadc2a5d03783c71165bcc2e398fc02f51896ab54517b8752b",
    "experiment --mechanism tenm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3":
        "8b665196e3f92c382dbeebe51a684414b0d27953ebf7d485a76f182509eb1cfe",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3":
        "6df59d6ba79428d3b1cb5009333c4a84736fe961bba4a30fc4e8fad84b3e8cdd",
    "experiment --mechanism psm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3":
        "446f820db994de331fcd05d84b76d2d61a11e13f8425ec8d8ee13aedf4754ae7",
    "experiment --mechanism ectai --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3":
        "60f3c1744caad333832fff77a5edda4b7eacf3b8d176dfaa8446bf6d9aba6e57",
    "experiment --mechanism avr --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3":
        "ec70c14287d67dc62f1c57c5f8aa3f9235b0ccc962556acded229fca2d6cb92f",
    "experiment --mechanism ectai --rounds 2 --seed 17 --n 20 --dist normal --deviation-frac 0.3":
        "59208931cc5464936e0e8fe756c6ea34171af79b90901034ef72efe73ffcb499",
    "experiment --mechanism avr --rounds 2 --seed 17 --n 20 --dist normal --deviation-frac 0.3":
        "a6fed57586abfc4950c9be6a04bbf06dad1cb88684ac35a8955cb2a1eaa6ffcc",
    "experiment --mechanism ectai --n 5 --f 3 --g 3":
        "b3cc7bc574548dd3e28fe245d4e44c4733d3bb5f9a5e2ee59d8837841987af1c",
    "graph-info --graph tests/data/ex6.txt --format csv":
        "e1b5b79fcc2ea594816ed7d10b43ff00775ed308db3a3df216b5298891fd8adb",
    "tenm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv --format csv":
        "a0a7acdbdaad0ef74bbe5f17849703a4b6ebd6a94246fc5b9662cfe0839c7a18",
    "tenm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3 --format csv":
        "f910be3e2eea93724dabe9c90c74f7c171d12ab165c122f48732fe79eac47155",
    "ntbfm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv --format csv":
        "ac6fb3b5e9151d646450ce1c10564fa895630cc88b4958c61a1c2f00d22619e5",
    "ntbfm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3 --format csv":
        "7ba2185079a166993cca430cb1379598b31855e1d7bb4204d3e979abe672e968",
    "psm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv --format csv":
        "f87b43860c9095a923ad7af3017f392901ccfec56daf81532315b03ecd5f02e1",
    "psm --graph tests/data/ex6.txt --budget 40 --cost-range 2:9 --seed 3 --format csv":
        "fd1a40cf946150f8d85e66eb4d8f5ffe5579ef55133cfcfc9c9729d8f7318300",
    "tenm --graph tests/data/ex6.txt --budget 12 --costs tests/data/ex6_costs.csv --delta 3 --format csv":
        "66f051d32d6127d7653f25aedb4d764d188fb30a5225ba3194bfdee487d6a5c5",
    "tenm --graph tests/data/ex6.txt --budget 9 --cost-range 1:5 --delta 1/2 --seed 17 --format csv":
        "54e8935896540f20da067fb90b0a7e88b78f39231c2d37b2991090b42be45f0f",
    "tenm --graph tests/data/ex6.txt --budget 12 --cost-range 50:20 --format csv":
        "c7c3c900f2c816d65fd8cd48080f7c4d7981587c900bd25e8f0148ff75f62619",
    "ectai --devices 12 --f 3 --g 3 --seed 0 --format csv":
        "b46b0c3e332a81b80a854cf0e1a10130a5c3d4b7f79d2be8b459bd7bb305e26d",
    "ectai --devices 12 --f 3 --g 3 --seed 3 --format csv":
        "5dd142a2d7f2bba8b396a12fb4dc784ad11b67a8ad5d38ab2a6b62a23a22d65e",
    "ectai --devices 12 --f 3 --g 3 --seed 17 --format csv":
        "98c1e984e873adb5e50c77ec535b8df2defb673bfe1c7581de13b27f035e9bfd",
    "ectai --devices 20 --f 4 --g 5 --dist normal --mu 0.4 --sigma 0.2 --seed 3 --format csv":
        "e0c5127ed3f2c4e706e47d54a7e8f2e49b6bbda0f418eae6c403a07a1b58c0d0",
    "avr --devices 12 --f 3 --g 3 --seed 0 --format csv":
        "1c2f60d9153e34ad119063aea6b20efcb31d2646f25077b5df882dfdb1d197f9",
    "avr --devices 12 --f 3 --g 3 --seed 3 --format csv":
        "c90b7babae2754d4b73b786f0a4e9d9f3971770ba2aa9a04f604727876e466ed",
    "avr --devices 12 --f 3 --g 3 --seed 17 --format csv":
        "dae3114db94711633407a5ec4c4b7cfdbcd36d7c69ed1c3eb9555acfa43ae6e6",
    "avr --devices 20 --f 4 --g 5 --dist normal --mu 0.4 --sigma 0.2 --seed 3 --format csv":
        "27afe7a49facb4598ed1ba20dbbef396c596bb782e494bdf3d05c3625298e851",
    "ectai --devices 5 --f 3 --g 3 --format csv":
        "b3cc7bc574548dd3e28fe245d4e44c4733d3bb5f9a5e2ee59d8837841987af1c",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 0 --format csv":
        "5bca5a1c5c0a5ba27c78e88f76ccf45d5a40c4d6db67721ea00d6d67ca66e87e",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 0 --format csv":
        "d10e29172d253e2df13ce8278c6f741c83fad29fc0d24c0401720e71a8ede870",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 3 --format csv":
        "7f57cd85ba5adcbc88fe3bf75b52a0c0af99127e6ceac4b0ceabcffa07aeb76d",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 3 --format csv":
        "2090f61b4255b621342613dff18f3ce6c085ea5fc03ea6d33694ea6dfb3c9cab",
    "wipd --num-tasks 4 --bidders 2 --val-range 3:9 --seed 17 --format csv":
        "76a9d4e97b9502d8041dac6c5515386a98573978ba6507846596d50d1227981c",
    "greedy --num-tasks 4 --bidders 3 --val-range 3:9 --seed 17 --format csv":
        "1c273249623028b760d83bddfd47915cee8bc0392bd021709a6398ff224934b2",
    "greedy --seed 3 --format csv":
        "234f738891d6b9f3f6f2e6cece478a4c5f3f5a15bc6177057496f5ad5e401431",
    "estimate --degree 6 --p 0.3 --estimator expected --format csv":
        "7b9bc8792e9de9c66c58bc8dd7b0dcd42a2a76377644e90400afdc7e07244fad",
    "estimate --degree 6 --p 0.3 --estimator at-least-one --format csv":
        "1bbd50764cc6e89f6edaf8f182a7a884df5bc3bd9a84836202022a05ec54274c",
    "estimate --degree 6 --p 0.3 --estimator chernoff --format csv":
        "589b1135a0a378f2a7d2f161d726c01e9a8e64a11459171cb099359367ba8d7c",
    "estimate --degree 6 --p 0.3 --estimator lemma1 --format csv":
        "2c8dc7a184ca9186a8c3c3d6d3c12d278b9bb6a240aa372f0ec014bf84711ab9",
    "experiment --mechanism tenm --rounds 2 --seed 0 --deviation-frac 0 --n 20 --format csv":
        "da264629f9a6107cb7107bb131a08db53758cc521cd53f36f30df75f1f7e3d79",
    "experiment --mechanism tenm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20 --format csv":
        "ea738b2ce5c9ae6671801cb488ead3abe480f9062deccf0ae9e11a0031308c55",
    "experiment --mechanism tenm --rounds 2 --seed 3 --deviation-frac 0 --n 20 --format csv":
        "398bddb4f01276be23f73898b49d4af4718b0e0724ed4f055d4d16c2aa80104e",
    "experiment --mechanism tenm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20 --format csv":
        "11329d1c3f2ca2d89b11bc655bd99b941de2d50ef7cfc1910137e60e0775be2b",
    "experiment --mechanism tenm --rounds 2 --seed 17 --deviation-frac 0 --n 20 --format csv":
        "f0a554d504f6eec7e00faac641732ae2a45f32fba24a79d38b0a2e9f1cbb310d",
    "experiment --mechanism tenm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20 --format csv":
        "e15febe5da91ed84f4a04c8b90ede05b2028ea98c140dc57f6bb0b0ed26c8cde",
    "experiment --mechanism ntbfm --rounds 2 --seed 0 --deviation-frac 0 --n 20 --format csv":
        "dc91ed3458cefe2a49c7b979625a0d97d03a424a3a2cb06884d1d6b8ae47a4af",
    "experiment --mechanism ntbfm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20 --format csv":
        "5f5e8ac19cf0be8d9eaddd707c452829c425146551100bfeb6b859661f0fed50",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --deviation-frac 0 --n 20 --format csv":
        "d403b6f7ee0ac88c2de4ca9a4b3a363732ab933d8ebbe7fc7d9a8ffae350f9b1",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20 --format csv":
        "c480ec08c33f79c190bba69f2d46550bcbf46dd4400b196102833aa89f58d314",
    "experiment --mechanism ntbfm --rounds 2 --seed 17 --deviation-frac 0 --n 20 --format csv":
        "f9fad9ecac8bb3e53e6d1402f30e9c32fe90bdd898a1ebdde8e325590520071d",
    "experiment --mechanism ntbfm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20 --format csv":
        "fa001c6d4203e1ee9cf5d475dbb1e95758a3b67097ec7ac74340ea7f6c660b56",
    "experiment --mechanism psm --rounds 2 --seed 0 --deviation-frac 0 --n 20 --format csv":
        "e3d9cd2fd7b1d8eb32c9567b5b26791a12acbf13452d280136e54444e90f04de",
    "experiment --mechanism psm --rounds 2 --seed 0 --deviation-frac 0.3 --n 20 --format csv":
        "0e589f83319aa5ce0d7713d95260e0274a6836a72954c687cc126fa8b766ddd0",
    "experiment --mechanism psm --rounds 2 --seed 3 --deviation-frac 0 --n 20 --format csv":
        "e106033de90db1b93cec66a3de07c31fbfadbb279a7fdac3bd09ebdd41f292af",
    "experiment --mechanism psm --rounds 2 --seed 3 --deviation-frac 0.3 --n 20 --format csv":
        "cbb7efa75b74c197d65bf422821a1ce79f366cde62d5f7f2d16ee61e225f7dba",
    "experiment --mechanism psm --rounds 2 --seed 17 --deviation-frac 0 --n 20 --format csv":
        "7d3c775710043a5ff32e8c1f33c524eba67d34947c4b16d717163a85eae9d7cf",
    "experiment --mechanism psm --rounds 2 --seed 17 --deviation-frac 0.3 --n 20 --format csv":
        "9b54498af18f6726df9cd583c3ec7d0d0dabecf631d9d4ff710f1a3d35b7c87c",
    "experiment --mechanism ectai --rounds 2 --seed 0 --deviation-frac 0 --n 20 --format csv":
        "f313b19ef6779d206873e646281738b46a894f923f268234f09ead9a2aac85b5",
    "experiment --mechanism ectai --rounds 2 --seed 0 --deviation-frac 0.3 --n 20 --format csv":
        "addc1bc3742fec805dbd494238b1a6dccad40c2f8a7def3e536d7903c80bdd6c",
    "experiment --mechanism ectai --rounds 2 --seed 3 --deviation-frac 0 --n 20 --format csv":
        "e9d1a330f3125bd08aa4d4cc12b667f704a0cac7a7532c7bb6c675a60a21dd0d",
    "experiment --mechanism ectai --rounds 2 --seed 3 --deviation-frac 0.3 --n 20 --format csv":
        "5729acb90ed989223a6a3b7a57d927e410d5afd067ceacc16493cb57400d09d1",
    "experiment --mechanism ectai --rounds 2 --seed 17 --deviation-frac 0 --n 20 --format csv":
        "4fb3ed30fe22b92642770a6568713233444e4536282ac924f98a055d7fb0aa1b",
    "experiment --mechanism ectai --rounds 2 --seed 17 --deviation-frac 0.3 --n 20 --format csv":
        "8ee5b20f110ad03ed81496a4d2b0ee72a458898711dd706da6c10f0339223b62",
    "experiment --mechanism avr --rounds 2 --seed 0 --deviation-frac 0 --n 20 --format csv":
        "78400f3ce9b6c8b59945327e2cffcc803868ff561932edc931b3f7665950217e",
    "experiment --mechanism avr --rounds 2 --seed 0 --deviation-frac 0.3 --n 20 --format csv":
        "e34639267fb49403f72dcd2e788c0b3d3d0b7b3a37c71264ef92eafec56290ad",
    "experiment --mechanism avr --rounds 2 --seed 3 --deviation-frac 0 --n 20 --format csv":
        "9e8f8f876c2afe4df4690352c17331d72bed388c3b9956d41f45ce05d6080a69",
    "experiment --mechanism avr --rounds 2 --seed 3 --deviation-frac 0.3 --n 20 --format csv":
        "55b07bccd234fbaa77cc9c076fa4333ccfe3c233210b285649478ff45b4c202a",
    "experiment --mechanism avr --rounds 2 --seed 17 --deviation-frac 0 --n 20 --format csv":
        "dfbb858871df5e312cf3eb6b3358832969894c8c47f4be9c8626272d0ea69ce7",
    "experiment --mechanism avr --rounds 2 --seed 17 --deviation-frac 0.3 --n 20 --format csv":
        "87cf1ad0c020f96f14e8d756b4cd7b9a68b3a38b4671a14827b81d797bba4e20",
    "experiment --mechanism wipd --rounds 2 --seed 0 --deviation-frac 0 --format csv":
        "cd112d6acd79e7c6b593ade5df6f5653e863481bb52c0e6afdcf77a2a22298de",
    "experiment --mechanism wipd --rounds 2 --seed 0 --deviation-frac 0.3 --format csv":
        "f7de0223b40f2448a23574292a444873b3857b7a5031d66a45305e20a3a4e268",
    "experiment --mechanism wipd --rounds 2 --seed 3 --deviation-frac 0 --format csv":
        "03a5bf3d8af551a13b0cd6e7c7edd4e8c6306bb89694551fc559167f5d33c6e3",
    "experiment --mechanism wipd --rounds 2 --seed 3 --deviation-frac 0.3 --format csv":
        "3d7d8ea8c165c21faafc777a12e91639c4f6f2bcb16e08dcd3561f29d50fce22",
    "experiment --mechanism wipd --rounds 2 --seed 17 --deviation-frac 0 --format csv":
        "c5a317ef6e08c7afc259e7f6dbb7066c5ca8f57442caa6356eafcc739e82ee05",
    "experiment --mechanism wipd --rounds 2 --seed 17 --deviation-frac 0.3 --format csv":
        "3c5fa64bea8899f8a6ed1776eb271d035a64acc5a081ab3a6e9a2b5a277370ac",
    "experiment --mechanism greedy --rounds 2 --seed 0 --deviation-frac 0 --format csv":
        "4d5541759ddc6a6b685bd60fc5a018a3cceb04329da76a3c751f36cf05add8ea",
    "experiment --mechanism greedy --rounds 2 --seed 0 --deviation-frac 0.3 --format csv":
        "4f3b070ec0ef99f9ce97777597a9549f15ea91144ab49cfcf2882b625bcbc0c1",
    "experiment --mechanism greedy --rounds 2 --seed 3 --deviation-frac 0 --format csv":
        "568c5c317c5e2da5599e92af1f5c73efb77a9e8f3650d6da9c9bf34f906698d4",
    "experiment --mechanism greedy --rounds 2 --seed 3 --deviation-frac 0.3 --format csv":
        "4122390c91ee7e157bdf192947502726365497d64512ff0f7a510d26ed92b833",
    "experiment --mechanism greedy --rounds 2 --seed 17 --deviation-frac 0 --format csv":
        "f8658d830d09ae6cc99189ba52a873234e337b47b666e577dbf0c005e6332ab4",
    "experiment --mechanism greedy --rounds 2 --seed 17 --deviation-frac 0.3 --format csv":
        "2762e46d5b247dc0f78494f8555144a19611e14b9b49e2cbf5cf6ec874222335",
    "experiment --mechanism tenm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3 --format csv":
        "b5ede6b2d16254e5c05244790c0f0242357deb95261b5f00fa85f1baaf7a31fd",
    "experiment --mechanism ntbfm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3 --format csv":
        "b0f3585c5b882535fbcae941ceb19c231ebc0ea9276ed7f84e3ea4877255edcc",
    "experiment --mechanism psm --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3 --format csv":
        "528015dac7f5f18598c82b5e6c1c93d00134ea376e0a4b9584cfe3f938574abf",
    "experiment --mechanism ectai --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3 --format csv":
        "b09d91326e66be27c0c927f9525ddf2c43f8602020f1764ca71e757d2a6a7b70",
    "experiment --mechanism avr --rounds 2 --seed 3 --graph tests/data/ex6.txt --deviation-frac 0.3 --format csv":
        "5486e864683a01c69e9771f4f22c99423e03ff638e84d88bc3f1a407dd8e44cf",
    "experiment --mechanism ectai --rounds 2 --seed 17 --n 20 --dist normal --deviation-frac 0.3 --format csv":
        "8a8de3f7fa8a02f3fa0a7da91a6589d6199edaf7a01b06e49936806dd4c19e5b",
    "experiment --mechanism avr --rounds 2 --seed 17 --n 20 --dist normal --deviation-frac 0.3 --format csv":
        "a024e3cdb7417bae1c1e3bb925c7c6e0080898b14ca1e0bdd3e6f42145b5fc58",
    "experiment --mechanism ectai --n 5 --f 3 --g 3 --format csv":
        "b3cc7bc574548dd3e28fe245d4e44c4733d3bb5f9a5e2ee59d8837841987af1c",
    # Pools above random.sample's set-size threshold (85 for g = 7), so the
    # reviewer draws take its set-based branch rather than the list copy.
    "ectai --devices 300 --f 5 --g 7 --seed 1":
        "a280368aff8b1548c9b5bc8cf5248fa9fdf4c40a7a949828c6445ab6559a1118",
    "avr --devices 300 --f 5 --g 7 --seed 1":
        "4c911b334a04815df0e5199a12f57917621a20b0de1088c2a923f85066c53971",
    "ectai --devices 150 --f 6 --g 12 --dist normal --seed 4":
        "5e09da0a8209cff1a8fd15256e3d051d3f6000ca29d68cd1e8ee1089cc97685b",
    "experiment --mechanism ectai --n 300 --f 5 --g 7 --rounds 1 --deviation-frac 0.2 --seed 2":
        "1e28e66047a66451957b66e0c6e9977365a1c2b5dda088997082109acbd10e51",
    "experiment --mechanism avr --n 300 --f 5 --g 7 --rounds 1 --deviation-frac 0.2 --seed 2":
        "311a2bfbc6e6b7c3e4d27fb8bea8353b242cceff36531f609a2baaacda02da8c",
}


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_cli_output_matches_golden(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(line.split())
    captured = capsys.readouterr()
    blob = f"{code}\0{captured.out}\0{captured.err}"
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN[line]
