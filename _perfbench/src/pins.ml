(* Reference digests of the study analysis (Study.digest), one per
   workload seed, computed with `perfbench study-pin --seed N` from the
   code the benchmark was introduced with. A change that alters any table
   or matrix fails the study check for these seeds. Seed 9001 is the
   held-out seed. *)

let study_pins =
  [
    (0, "1ff4a0bfa87c8e7177b02de7296e40a0");
    (1, "2f24f0dd2288ddba353466a7ba4eeeb3");
    (2, "6c80b4bb73aa67184dbf6e8f1bc80f80");
    (3, "1f6b053847662f10e0e9a612de02cdcd");
    (4, "29b8c874eb91b53dcf09546b3d1d686f");
    (5, "055dd17e4c07d20acdeeaca204dd486f");
    (6, "207198c9b3f0695ccca2c99e27e6ed83");
    (7, "018711278ccde4160f3913d48f7a054e");
    (8, "fccd25d67b702dd1193c2a8603bd523c");
    (9, "043ee0e77c549156ce7c855913c616ba");
    (10, "d50056c655ec4257e40c3080fbb7ea80");
    (11, "26d280eaaacdd64c77bd83d4683a3aac");
    (12, "79bf334412d37a58b17392cf3ec0c8b1");
    (13, "bf98797ef3d8a36766973d10e41d6c29");
    (14, "336b0dfbdd0744c0ad460192612fb35c");
    (15, "2bc9bbe9665094dcbc4d0adbaea34cff");
    (16, "c637d8affdf84981359adf6ec92d0406");
    (17, "d41e4cc32642721718ce6ffd5ea89fc8");
    (18, "039de0c9fec6c8f501e1d29a364fe85b");
    (19, "9298372bb48e105fa49556a35615c8e6");
    (20, "3c87f7f5de684b7dfc828bbe520af720");
    (21, "de3eb39771d8288654f143acf8bb03ed");
    (22, "344919474b77d30f36cbe3720bc6200a");
    (23, "c214fd4bf104223e54ddaf491f06ae74");
    (24, "1ce94a3f35e8557457021d37c2d969e4");
    (25, "514852f5bba3cfacf79fb2cd81196bad");
    (26, "bd41a2e2a00cf037b83a489c8701e053");
    (27, "b41f5f8d8e4dcea555d86fc85540380a");
    (28, "d13682832aeb36d5193db9dc31ac152c");
    (29, "3e5a2f14c5ecebe15759872b8b054fb2");
    (30, "e53ca4110781cd4fd29605680551c7d1");
    (31, "d7b1e3193890ba906b7c9a6f221c5c7a");
    (32, "dbef575fc7f388fcedc337e1ada41933");
    (33, "72a374e5b7ce27139e874550f83d86fe");
    (34, "c75e5d72947c7cc903dd552541f34270");
    (35, "f21e2eaf703e4470cd5e59e40bcd356a");
    (36, "e70dcc0da999e6b78bb41d8842c69288");
    (37, "4a2bc52db233dcc3af1348d63cea0ad1");
    (38, "3c0d98489c68661a2dce92eba028c680");
    (39, "1f63209928abf984992d8cadb0323c46");
    (40, "edd19cae8f498c59397a4f450de19fe5");
    (9001, "aa3a446a02bed686010ecac852168963");
  ]

let study seed = List.assoc_opt seed study_pins
