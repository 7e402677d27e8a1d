(** The GLAF re-implementation of the six SARB kernels (§4.1).

    Built through the {!Glaf_builder.Build} API exactly as a user
    would drive the GPI: grids imported from the existing [fuinput] /
    [fuoutput] modules (§3.1), elements of the TYPE variables [fi] and
    [fo] (§3.5), the [/entcon/] COMMON block (§3.2), void return types
    for subroutine generation (§3.4), and — per GLAF's enforced
    program structure (§3.3) — interior loops hoisted into separate
    GLAF functions ([lw_exchange_up], [lw_exchange_dn],
    [ent_exchange], [lw_band_sum], [sw_band_sum]) with module-scope
    grids carrying the shared intermediate arrays.

    The arithmetic mirrors {!Sarb_legacy} statement for statement, so
    the §4.1.1 side-by-side verification must agree to rounding. *)

open Glaf_ir
open Glaf_builder
module E = Expr
module S = Stmt

let nv = 60
let nv1 = 61
let mbx = 12
let mbsx = 6

(* --- grid constructors for the integration surface ------------------- *)

let ext_int name = Grid.scalar ~storage:(Grid.External_module "fuinput") Types.T_int name

let ext_arr ?(m = "fuinput") n name =
  Grid.array ~storage:(Grid.External_module m) Types.T_real8
    ~dims:[ Grid.dim (Grid.Fixed n) ] name

let fi_scalar name =
  Grid.scalar ~storage:(Grid.Type_element ("fuinput", "fi")) Types.T_real8 name

let fi_arr n name =
  Grid.array ~storage:(Grid.Type_element ("fuinput", "fi")) Types.T_real8
    ~dims:[ Grid.dim (Grid.Fixed n) ] name

let fo_arr n name =
  Grid.array ~storage:(Grid.Type_element ("fuoutput", "fo")) Types.T_real8
    ~dims:[ Grid.dim (Grid.Fixed n) ] name

let out_scalar name =
  Grid.scalar ~storage:(Grid.External_module "fuoutput") Types.T_real8 name

let common_real name = Grid.scalar ~storage:(Grid.Common "entcon") Types.T_real8 name

let local_real name = Grid.scalar Types.T_real8 name

let local_arr dims name =
  Grid.array Types.T_real8
    ~dims:(List.map (fun n -> Grid.dim (Grid.Fixed n)) dims)
    name

let module_arr dims name =
  Grid.array ~storage:Grid.Module_scope Types.T_real8
    ~dims:(List.map (fun n -> Grid.dim (Grid.Fixed n)) dims)
    name

(* Module-scope shared intermediates (§3.3: interior-loop functions
   must see them). *)
let shared_grids =
  [
    module_arr [ nv1 ] "tl";
    module_arr [ nv1 ] "cld";
    module_arr [ nv1; mbx ] "bb";
    module_arr [ nv1; mbx ] "dbb";
    module_arr [ nv; mbx ] "tau";
    module_arr [ nv; mbx ] "tauc";
    module_arr [ nv; mbx ] "taua";
    module_arr [ mbx ] "wgt";
    module_arr [ nv1 ] "cum";
    module_arr [ nv1 ] "cum9";
    module_arr [ 2; nv ] "flux2";
    module_arr [ 2; nv ] "ent2";
    module_arr [ nv1 ] "gray";
    module_arr [ nv1 ] "gray9";
    module_arr [ nv1 ] "bnd";
    module_arr [ nv1 ] "tsw";
  ]

(* shared references used by several functions *)
let use_shared =
  List.map (fun (g : Grid.t) -> { g with Grid.storage = Grid.Module_scope })

let profile_grids =
  [
    ext_int "nv"; ext_int "nv1"; ext_int "mbx"; ext_int "mbsx";
    ext_arr nv1 "pp"; ext_arr nv1 "pt"; ext_arr nv1 "ph"; ext_arr nv1 "po";
    ext_arr nv "dz";
  ]

let entcon_grids =
  [ common_real "pc1"; common_real "pc2"; common_real "sigma"; common_real "wnwin" ]

let pi_lit = E.real 3.14159

(* --- adjust2 ----------------------------------------------------------- *)

let build_adjust2 b =
  Build.start_function b "adjust2";
  Build.add_param b (Grid.scalar Types.T_real8 "dtemp");
  Build.add_param b (Grid.scalar Types.T_real8 "qfac");
  List.iter (Build.add_grid b) profile_grids;
  Build.add_grid b (local_real "colq");
  Build.add_grid b (local_real "scale");
  Build.add_grid b (Grid.scalar Types.T_int "ktrop");
  Build.start_step b "temperature";
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv1")
       [
         S.assign_idx "pt" [ E.var "k" ]
           (E.call "min"
              [
                E.call "max" [ E.(idx "pt" [ var "k" ] + var "dtemp"); E.real 160.0 ];
                E.real 330.0;
              ]);
       ]);
  Build.start_step b "humidity";
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv1")
       [
         S.assign_idx "ph" [ E.var "k" ]
           (E.call "max" [ E.(idx "ph" [ var "k" ] * var "qfac"); E.real 1e-9 ]);
       ]);
  Build.start_step b "ozone_column";
  Build.add_stmt b (S.assign_var "colq" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
       [
         S.assign_var "colq"
           E.(
             var "colq"
             + real 0.5
               * (idx "po" [ var "k" ] + idx "po" [ var "k" + int 1 ])
               * (idx "pp" [ var "k" + int 1 ] - idx "pp" [ var "k" ]));
       ]);
  Build.start_step b "ozone_scale";
  Build.add_stmt b (S.assign_var "scale" (E.real 1.0));
  Build.add_stmt b
    (S.if_ E.(var "colq" > real 1e-12)
       [ S.assign_var "scale" E.(real 2.6e-3 / var "colq") ]
       []);
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv1")
       [ S.assign_idx "po" [ E.var "k" ] E.(idx "po" [ var "k" ] * var "scale") ]);
  Build.start_step b "tropopause";
  Build.add_stmt b (S.assign_var "ktrop" (E.int 1));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
       [
         S.if_
           E.(idx "pt" [ var "k" + int 1 ] > idx "pt" [ var "k" ])
           [ S.assign_var "ktrop" (E.var "k"); S.Exit_loop ]
           [];
       ]);
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv1")
       [
         S.if_
           E.(var "k" < var "ktrop")
           [ S.assign_idx "ph" [ E.var "k" ] E.(idx "ph" [ var "k" ] * real 0.999) ]
           [];
       ]);
  Build.start_step b "thickness";
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
       [
         S.assign_idx "dz" [ E.var "k" ]
           E.(
             real 29.3 * real 0.5
             * (idx "pt" [ var "k" ] + idx "pt" [ var "k" + int 1 ])
             * call "alog" [ idx "pp" [ var "k" + int 1 ] / idx "pp" [ var "k" ] ]);
       ])

(* --- interior-loop helper functions (§3.3) ----------------------------- *)

(* upward exchange for level k in band 6, including the surface term *)
let build_lw_exchange_up b =
  Build.start_function b "lw_exchange_up" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "k");
  List.iter (Build.add_grid b)
    (use_shared [ module_arr [ nv1; mbx ] "bb"; module_arr [ nv; mbx ] "tau";
                  module_arr [ nv1 ] "cld" ]);
  Build.add_grid b (ext_int "nv");
  Build.add_grid b (fi_arr mbx "ee");
  Build.add_grid b (fi_scalar "pts");
  Build.add_grid b (common_real "sigma");
  Build.add_grid b (local_real "path");
  Build.add_grid b (local_real "src");
  Build.add_grid b (local_real "acc");
  Build.start_step b "sweep";
  Build.add_stmt b (S.assign_var "acc" (E.real 0.0));
  Build.add_stmt b (S.assign_var "path" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "j" ~lo:(E.var "k")
       ~hi:(E.call "min" [ E.(var "k" + int 19); E.var "nv" ])
       [
         S.assign_var "path" E.(var "path" + idx "tau" [ var "j"; int 6 ]);
         S.assign_var "src"
           E.(idx "bb" [ var "j"; int 6 ] + real 0.25 * idx "bb" [ var "j"; int 9 ]);
         S.if_
           E.(idx "cld" [ var "j" ] > real 0.3)
           [
             S.assign_var "src"
               E.(var "src" * (real 1.0 - real 0.55 * idx "cld" [ var "j" ]));
             S.assign_var "path" E.(var "path" + real 0.8 * idx "cld" [ var "j" ]);
           ]
           [
             S.assign_var "src"
               E.(var "src" * (real 1.0 + real 0.08 * idx "cld" [ var "j" ]));
           ];
         S.assign_var "acc"
           E.(var "acc"
              + var "src" * call "exp" [ neg (var "path") ]
                * idx "tau" [ var "j"; int 6 ]);
       ]);
  Build.start_step b "surface";
  Build.add_stmt b
    (S.assign_var "acc"
       E.(var "acc"
          + idx "ee" [ int 6 ] * var "sigma" * (var "pts" ** real 4.0)
            * call "exp" [ neg (var "path") ]
            / pi_lit));
  Build.add_stmt b (S.Return (Some (E.var "acc")))

(* downward exchange for level k *)
let build_lw_exchange_dn b =
  Build.start_function b "lw_exchange_dn" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "k");
  List.iter (Build.add_grid b)
    (use_shared [ module_arr [ nv1; mbx ] "bb"; module_arr [ nv; mbx ] "tau";
                  module_arr [ nv1 ] "cld" ]);
  Build.add_grid b (local_real "path");
  Build.add_grid b (local_real "src");
  Build.add_grid b (local_real "acc");
  Build.start_step b "sweep";
  Build.add_stmt b (S.assign_var "acc" (E.real 0.0));
  Build.add_stmt b (S.assign_var "path" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "j" ~lo:(E.var "k")
       ~hi:(E.call "max" [ E.(var "k" - int 19); E.int 1 ])
       ~step:(E.int (-1))
       [
         S.assign_var "path" E.(var "path" + idx "tau" [ var "j"; int 6 ]);
         S.assign_var "src"
           E.(idx "bb" [ var "j"; int 6 ] + real 0.25 * idx "bb" [ var "j"; int 3 ]);
         S.if_
           E.(idx "cld" [ var "j" ] > real 0.3)
           [
             S.assign_var "src"
               E.(var "src" * (real 1.0 - real 0.45 * idx "cld" [ var "j" ]));
             S.assign_var "path" E.(var "path" + real 0.6 * idx "cld" [ var "j" ]);
           ]
           [
             S.assign_var "src"
               E.(var "src" * (real 1.0 + real 0.05 * idx "cld" [ var "j" ]));
           ];
         S.assign_var "acc"
           E.(var "acc"
              + var "src" * call "exp" [ neg (var "path") ]
                * idx "tau" [ var "j"; int 6 ]);
       ]);
  Build.add_stmt b (S.Return (Some (E.var "acc")))

(* per-neighbour entropy contribution: a §3.3 leaf — straight-line
   IF/assign code over scalar dummies — small enough for the bytecode
   compiler to inline into ent_exchange's sweep.  The operations and
   their order are exactly those of the branches it replaces, so the
   factoring is bit-preserving. *)
let build_ent_contrib b =
  Build.start_function b "ent_contrib" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_real8 "fj");
  Build.add_param b (Grid.scalar Types.T_real8 "dtq");
  Build.add_param b (Grid.scalar Types.T_real8 "tlj");
  Build.add_param b (Grid.scalar Types.T_real8 "tlk");
  Build.start_step b "contrib";
  Build.add_stmt b
    (S.if_
       E.(call "abs" [ var "dtq" ] > real 2.0)
       [
         S.Return (Some E.(var "fj" * var "dtq" / (var "tlj" * var "tlk")));
       ]
       [
         S.Return
           (Some
              E.(var "fj" * real 2.0 / (var "tlj" + var "tlk") * real 0.01));
       ])

(* entropy exchange correction for (idir, k) *)
let build_ent_exchange b =
  Build.start_function b "ent_exchange" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "idir");
  Build.add_param b (Grid.scalar Types.T_int "k");
  List.iter (Build.add_grid b)
    (use_shared [ module_arr [ 2; nv ] "flux2"; module_arr [ nv1 ] "tl" ]);
  Build.add_grid b (ext_int "nv");
  Build.add_grid b (local_real "acc");
  Build.add_grid b (local_real "dtq");
  Build.add_grid b (local_real "fj");
  Build.add_grid b (local_real "tlj");
  Build.add_grid b (local_real "tlk");
  Build.start_step b "exchange";
  Build.add_stmt b (S.assign_var "acc" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "j"
       ~lo:(E.call "max" [ E.(var "k" - int 12); E.int 1 ])
       ~hi:(E.call "min" [ E.(var "k" + int 12); E.var "nv" ])
       [
         S.assign_var "fj" (E.idx "flux2" [ E.var "idir"; E.var "j" ]);
         S.assign_var "tlj" (E.idx "tl" [ E.var "j" ]);
         S.assign_var "tlk" (E.idx "tl" [ E.var "k" ]);
         S.assign_var "dtq" E.(var "tlj" - var "tlk");
         S.assign_var "acc"
           E.(var "acc"
              + call "ent_contrib"
                  [ var "fj"; var "dtq"; var "tlj"; var "tlk" ]);
       ]);
  Build.add_stmt b
    (S.Return
       (Some
          E.(
            idx "flux2" [ var "idir"; var "k" ] / idx "tl" [ var "k" ]
            + real 0.05 * var "acc" / var "nv")))

(* per-level longwave band sum used by lw_spectral_integration *)
let build_lw_band_sum b =
  Build.start_function b "lw_band_sum" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "k");
  Build.add_grid b (ext_int "mbx");
  Build.add_grid b (ext_arr nv1 "pt");
  Build.add_grid b (common_real "pc1");
  Build.add_grid b (common_real "pc2");
  Build.add_grid b (local_real "acc");
  Build.add_grid b (local_real "w");
  Build.start_step b "bands";
  Build.add_stmt b (S.assign_var "acc" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_var "w"
           (E.call "exp" [ E.(neg (real 0.23 * ((var "ib" - real 6.5) ** real 2.0))) ]);
         S.assign_var "acc"
           E.(var "acc"
              + var "w" * var "pc1" * (var "ib" ** real 3.0)
                / (call "exp"
                     [ var "pc2" * var "ib" * real 100.0 / idx "pt" [ var "k" ] ]
                   - real 1.0));
       ]);
  Build.add_stmt b (S.Return (Some (E.var "acc")))

(* per-level shortwave band sum used by sw_spectral_integration *)
let build_sw_band_sum b =
  Build.start_function b "sw_band_sum" ~return:Types.T_real8;
  Build.add_param b (Grid.scalar Types.T_int "k");
  List.iter (Build.add_grid b) (use_shared [ module_arr [ nv1 ] "tsw" ]);
  Build.add_grid b (ext_int "mbsx");
  Build.add_grid b (fi_scalar "u0");
  Build.add_grid b (fi_scalar "ss");
  Build.add_grid b (local_real "acc");
  Build.add_grid b (local_real "w");
  Build.start_step b "bands";
  Build.add_stmt b (S.assign_var "acc" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbsx")
       [
         S.assign_var "w"
           E.(call "exp" [ neg (real 0.4 * ((var "ib" - real 2.0) ** real 2.0)) ]
              / real 2.2);
         S.assign_var "acc"
           E.(var "acc"
              + var "w" * var "ss" * var "u0"
                * (idx "tsw" [ var "k" ] ** (real 0.6 + real 0.15 * var "ib")));
       ]);
  Build.add_stmt b (S.Return (Some (E.var "acc")))

(* --- longwave_entropy_model -------------------------------------------- *)

let k_loop ?(hi = "nv1") body = S.for_ "k" ~lo:(E.int 1) ~hi:(E.var hi) body

let build_longwave b =
  Build.start_function b "longwave_entropy_model";
  List.iter (Build.add_grid b) profile_grids;
  List.iter (Build.add_grid b) entcon_grids;
  List.iter (Build.add_grid b)
    (use_shared
       [
         module_arr [ nv1 ] "tl"; module_arr [ nv1 ] "cld";
         module_arr [ nv1; mbx ] "bb"; module_arr [ nv1; mbx ] "dbb";
         module_arr [ nv; mbx ] "tau"; module_arr [ nv; mbx ] "tauc";
         module_arr [ nv; mbx ] "taua";
         module_arr [ mbx ] "wgt"; module_arr [ nv1 ] "cum";
         module_arr [ nv1 ] "cum9";
         module_arr [ 2; nv ] "flux2"; module_arr [ 2; nv ] "ent2";
         module_arr [ nv1 ] "gray"; module_arr [ nv1 ] "gray9";
       ]);
  List.iter (Build.add_grid b)
    [
      fo_arr nv1 "fuir"; fo_arr nv1 "fdir"; fo_arr nv1 "fwin";
      fo_arr nv1 "sen_lw"; fo_arr nv "hr";
      fi_arr mbx "ee"; fi_scalar "pts";
      out_scalar "olr_win"; out_scalar "ent_total";
    ];
  Build.add_grid b (local_real "tsum");
  Build.add_grid b (local_real "acc");
  Build.add_grid b (local_real "hnorm");
  Build.add_grid b (local_real "fcld");
  Build.add_grid b (local_real "tr");
  List.iter (Build.add_grid b)
    [
      local_arr [ mbx ] "hk"; local_arr [ mbx ] "cwn";
      local_arr [ nv; mbx ] "ssa"; local_arr [ nv; mbx ] "asym";
      local_arr [ nv; mbx ] "taud";
      local_arr [ nv1; mbx ] "fdb"; local_arr [ nv1; mbx ] "fub";
      local_arr [ mbx ] "olrb"; local_arr [ nv ] "tmid"; local_arr [ nv ] "lapse";
    ];
  (* phase 1: zero inits *)
  Build.start_step b "zero_fluxes";
  List.iter
    (fun name ->
      Build.add_stmt b (k_loop [ S.assign_idx name [ E.var "k" ] (E.real 0.0) ]))
    [ "fuir"; "fdir"; "fwin"; "sen_lw"; "gray" ];
  (* phase 2: broadcasts *)
  Build.start_step b "load_profiles";
  Build.add_stmt b
    (k_loop [ S.assign_idx "tl" [ E.var "k" ] (E.idx "pt" [ E.var "k" ]) ]);
  Build.add_stmt b
    (k_loop [ S.assign_idx "cld" [ E.var "k" ] (E.idx "ph" [ E.var "k" ]) ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "cld" [ E.var "k" ]
           E.(real 0.8
              * call "exp" [ neg (((var "k" - real 20.0) / real 8.0) ** real 2.0) ]);
       ]);
  (* phase 3: planck table *)
  Build.start_step b "planck_table";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         k_loop
           [
             S.assign_idx "bb" [ E.var "k"; E.var "ib" ]
               E.(var "pc1" * (var "ib" ** real 3.0)
                  / (call "exp"
                       [ var "pc2" * var "ib" * real 100.0 / idx "tl" [ var "k" ] ]
                     - real 1.0));
           ];
       ]);
  (* phase 3b: planck gradient table *)
  Build.start_step b "planck_gradient";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         k_loop
           [
             S.assign_idx "dbb" [ E.var "k"; E.var "ib" ]
               E.(idx "bb" [ var "k"; var "ib" ] * var "pc2" * var "ib" * real 100.0
                  / (idx "tl" [ var "k" ] * idx "tl" [ var "k" ])
                  * call "exp"
                      [ var "pc2" * var "ib" * real 100.0 / idx "tl" [ var "k" ] ]
                  / (call "exp"
                       [ var "pc2" * var "ib" * real 100.0 / idx "tl" [ var "k" ] ]
                     - real 1.0));
           ];
       ]);
  (* phase 4: gas optical depths *)
  Build.start_step b "optical_depths";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "tau" [ E.var "k"; E.var "ib" ]
               E.(real 0.02 * var "ib" * idx "ph" [ var "k" ] * idx "dz" [ var "k" ]
                  / real 250.0
                  + real 1.2e4 * idx "po" [ var "k" ]
                    * call "abs"
                        [ call "alog"
                            [ idx "pp" [ var "k" + int 1 ] / idx "pp" [ var "k" ] ] ]
                    / var "ib");
           ];
       ]);
  (* phase 4b: cloud optical depths *)
  Build.start_step b "cloud_depths";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "tauc" [ E.var "k"; E.var "ib" ]
               E.(real 0.15 * idx "cld" [ var "k" ]
                  * call "exp" [ neg (real 0.08 * call "abs" [ var "ib" - real 6.0 ]) ]
                  * (real 1.0 + real 0.002 * (idx "tl" [ var "k" ] - real 250.0)));
           ];
       ]);
  (* phase 4c: aerosol optical depths *)
  Build.start_step b "aerosol_depths";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "taua" [ E.var "k"; E.var "ib" ]
               E.(real 3.0e-4 * call "exp" [ neg ((var "k" - real 1.0) / real 15.0) ]
                  * (real 1.0 + real 1.0 / var "ib")
                  * (idx "pp" [ var "k" + int 1 ] - idx "pp" [ var "k" ])
                  / real 17.0);
           ];
       ]);
  (* phase 4d: band overlap combination *)
  Build.start_step b "band_overlap";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "tau" [ E.var "k"; E.var "ib" ]
               E.(idx "tau" [ var "k"; var "ib" ]
                  + real 0.35 * idx "tauc" [ var "k"; var "ib" ]
                  + idx "taua" [ var "k"; var "ib" ]
                  + real 0.01
                    * call "sqrt"
                        [ idx "tauc" [ var "k"; var "ib" ]
                          * idx "taua" [ var "k"; var "ib" ]
                          + real 1e-12 ]);
           ];
       ]);
  (* phase 4e: single-scatter albedo / asymmetry tables *)
  Build.start_step b "scatter_tables";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "ssa" [ E.var "k"; E.var "ib" ]
               E.(real 0.96 * idx "tauc" [ var "k"; var "ib" ]
                  / (idx "tau" [ var "k"; var "ib" ] + real 1e-12));
             S.assign_idx "asym" [ E.var "k"; E.var "ib" ]
               E.(real 0.85 - real 0.02 * call "abs" [ var "ib" - real 6.0 ]
                  - real 0.04 * idx "cld" [ var "k" ]);
           ];
       ]);
  (* phase 4f: delta-scaled optical depths *)
  Build.start_step b "delta_scaling";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_var "fcld"
               E.(idx "asym" [ var "k"; var "ib" ] * idx "asym" [ var "k"; var "ib" ]);
             S.assign_idx "taud" [ E.var "k"; E.var "ib" ]
               E.((real 1.0
                   - call "min" [ idx "ssa" [ var "k"; var "ib" ]; real 0.999 ]
                     * var "fcld")
                  * idx "tau" [ var "k"; var "ib" ]);
           ];
       ]);
  (* phase 5: band weights *)
  Build.start_step b "band_weights";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_idx "wgt" [ E.var "ib" ]
           (E.call "exp" [ E.(neg (real 0.23 * ((var "ib" - real 6.5) ** real 2.0))) ]);
       ]);
  Build.add_stmt b (S.assign_var "tsum" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [ S.assign_var "tsum" E.(var "tsum" + idx "wgt" [ var "ib" ]) ]);
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [ S.assign_idx "wgt" [ E.var "ib" ] E.(idx "wgt" [ var "ib" ] / var "tsum") ]);
  (* phase 5b: k-distribution weights and band centres *)
  Build.start_step b "band_coefficients";
  List.iteri
    (fun i v ->
      Build.add_stmt b (S.assign_idx "hk" [ E.int (i + 1) ] (E.real v)))
    [ 0.22; 0.16; 0.13; 0.11; 0.09; 0.08; 0.06; 0.05; 0.04; 0.03; 0.02; 0.01 ];
  List.iteri
    (fun i v ->
      Build.add_stmt b (S.assign_idx "cwn" [ E.int (i + 1) ] (E.real v)))
    [ 2850.0; 2500.0; 2200.0; 1900.0; 1700.0; 1400.0; 1250.0; 1100.0;
      980.0; 800.0; 670.0; 540.0 ];
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_idx "wgt" [ E.var "ib" ]
           E.(idx "wgt" [ var "ib" ] * (real 0.5 + idx "hk" [ var "ib" ])
              * (real 1.0 + real 1e-5 * idx "cwn" [ var "ib" ]));
       ]);
  (* phase 6: serial recurrences *)
  Build.start_step b "gray_transmission";
  Build.add_stmt b (S.assign_idx "cum" [ E.int 1 ] (E.real 0.0));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 2) ~hi:(E.var "nv1")
       [
         S.assign_idx "cum" [ E.var "k" ]
           E.(idx "cum" [ var "k" - int 1 ] + idx "taud" [ var "k" - int 1; int 6 ]);
       ]);
  Build.add_stmt b (S.assign_idx "cum9" [ E.int 1 ] (E.real 0.0));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 2) ~hi:(E.var "nv1")
       [
         S.assign_idx "cum9" [ E.var "k" ]
           E.(idx "cum9" [ var "k" - int 1 ]
              + idx "tau" [ var "k" - int 1; int 9 ]
                * (real 1.0
                   + real 0.1 * idx "cum9" [ var "k" - int 1 ]
                     / (real 1.0 + idx "cum9" [ var "k" - int 1 ])));
       ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "gray" [ E.var "k" ]
           (E.call "exp" [ E.neg (E.idx "cum" [ E.var "k" ]) ]);
       ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "gray9" [ E.var "k" ]
           (E.call "exp" [ E.neg (E.idx "cum9" [ E.var "k" ]) ]);
       ]);
  (* phase 7: first large exchange loop (2 x 60, complex) *)
  Build.start_step b "flux_exchange";
  Build.add_stmt b
    (S.for_ "idir" ~lo:(E.int 1) ~hi:(E.int 2)
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.if_
               E.(var "idir" = int 1)
               [ S.assign_var "acc" (E.call "lw_exchange_up" [ E.var "k" ]) ]
               [ S.assign_var "acc" (E.call "lw_exchange_dn" [ E.var "k" ]) ];
             S.assign_idx "flux2" [ E.var "idir"; E.var "k" ]
               E.(var "acc" * pi_lit);
           ];
       ]);
  (* phase 8: second large exchange loop (2 x 60, complex) *)
  Build.start_step b "entropy_exchange";
  Build.add_stmt b
    (S.for_ "idir" ~lo:(E.int 1) ~hi:(E.int 2)
       [
         S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
           [
             S.assign_idx "ent2" [ E.var "idir"; E.var "k" ]
               (E.call "ent_exchange" [ E.var "idir"; E.var "k" ]);
           ];
       ]);
  (* phase 8b: per-band gray flux sweeps (serial recurrences per band) *)
  Build.start_step b "band_sweeps";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_idx "fdb" [ E.int 1; E.var "ib" ] (E.real 0.0);
         S.for_ "k" ~lo:(E.int 2) ~hi:(E.var "nv1")
           [
             S.assign_var "tr"
               (E.call "exp" [ E.neg (E.idx "taud" [ E.(var "k" - int 1); E.var "ib" ]) ]);
             S.assign_idx "fdb" [ E.var "k"; E.var "ib" ]
               E.(idx "fdb" [ var "k" - int 1; var "ib" ] * var "tr"
                  + idx "bb" [ var "k"; var "ib" ] * (real 1.0 - var "tr")
                    * real 3.14159);
           ];
       ]);
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_idx "fub" [ E.var "nv1"; E.var "ib" ]
           E.(idx "ee" [ var "ib" ] * var "sigma" * (var "pts" ** real 4.0)
              / var "mbx");
         S.for_ "k" ~lo:(E.var "nv") ~hi:(E.int 1) ~step:(E.int (-1))
           [
             S.assign_var "tr"
               (E.call "exp" [ E.neg (E.idx "taud" [ E.var "k"; E.var "ib" ]) ]);
             S.assign_idx "fub" [ E.var "k"; E.var "ib" ]
               E.(idx "fub" [ var "k" + int 1; var "ib" ] * var "tr"
                  + idx "bb" [ var "k"; var "ib" ] * (real 1.0 - var "tr")
                    * real 3.14159);
           ];
       ]);
  (* phase 8c: band-integrated TOA diagnostics *)
  Build.start_step b "band_diagnostics";
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [
         S.assign_idx "olrb" [ E.var "ib" ]
           E.(idx "wgt" [ var "ib" ] * idx "fub" [ int 1; var "ib" ]);
       ]);
  (* phase 9: combine *)
  Build.start_step b "combine_fluxes";
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [ S.assign_idx "fuir" [ E.var "k" ] (E.idx "flux2" [ E.int 1; E.var "k" ]) ]);
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [ S.assign_idx "fdir" [ E.var "k" ] (E.idx "flux2" [ E.int 2; E.var "k" ]) ]);
  Build.add_stmt b
    (S.assign_idx "fuir" [ E.var "nv1" ]
       E.(idx "ee" [ int 6 ] * var "sigma" * (var "pts" ** real 4.0)));
  Build.add_stmt b (S.assign_idx "fdir" [ E.var "nv1" ] (E.real 0.0));
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [
         S.assign_idx "sen_lw" [ E.var "k" ]
           E.(idx "ent2" [ int 1; var "k" ] + idx "ent2" [ int 2; var "k" ]);
       ]);
  Build.add_stmt b
    (S.assign_idx "sen_lw" [ E.var "nv1" ]
       E.(idx "fuir" [ var "nv1" ] / idx "tl" [ var "nv1" ]));
  (* phase 10: window channel *)
  Build.start_step b "window_channel";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fwin" [ E.var "k" ]
           E.(var "wnwin" * idx "bb" [ var "k"; int 7 ] * idx "gray" [ var "k" ]
              * (real 1.0 + idx "wgt" [ int 7 ]));
       ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fwin" [ E.var "k" ]
           E.(idx "fwin" [ var "k" ]
              + real 0.01 * var "wnwin" * idx "dbb" [ var "k"; int 7 ]
                * idx "gray9" [ var "k" ]);
       ]);
  (* phase 11: reductions *)
  Build.start_step b "totals";
  Build.add_stmt b (S.assign_var "olr_win" (E.real 0.0));
  Build.add_stmt b
    (k_loop [ S.assign_var "olr_win" E.(var "olr_win" + idx "fwin" [ var "k" ]) ]);
  Build.add_stmt b (S.assign_var "ent_total" (E.real 0.0));
  Build.add_stmt b
    (k_loop
       [ S.assign_var "ent_total" E.(var "ent_total" + idx "sen_lw" [ var "k" ]) ]);
  Build.add_stmt b
    (S.for_ "ib" ~lo:(E.int 1) ~hi:(E.var "mbx")
       [ S.assign_var "olr_win" E.(var "olr_win" + real 1e-3 * idx "olrb" [ var "ib" ]) ]);
  (* phase 12: heating rates with lapse correction *)
  Build.start_step b "heating_rates";
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [
         S.assign_idx "tmid" [ E.var "k" ]
           E.(real 0.5 * (idx "tl" [ var "k" ] + idx "tl" [ var "k" + int 1 ]));
       ]);
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [
         S.assign_idx "lapse" [ E.var "k" ]
           E.((idx "tl" [ var "k" + int 1 ] - idx "tl" [ var "k" ])
              / (real 1e-3 + call "abs" [ idx "dz" [ var "k" ] ]));
       ]);
  Build.add_stmt b
    (k_loop ~hi:"nv"
       [
         S.assign_var "hnorm"
           E.(real 8.442 / (idx "pp" [ var "k" + int 1 ] - idx "pp" [ var "k" ]));
         S.assign_idx "hr" [ E.var "k" ]
           E.(var "hnorm"
              * (idx "fuir" [ var "k" + int 1 ] - idx "fuir" [ var "k" ]
                 - idx "fdir" [ var "k" + int 1 ]
                 + idx "fdir" [ var "k" ]));
         S.assign_idx "hr" [ E.var "k" ]
           E.(idx "hr" [ var "k" ] * (real 1.0 + real 1e-4 * idx "lapse" [ var "k" ])
              * (idx "tmid" [ var "k" ] / (idx "tmid" [ var "k" ] + real 1.0)));
       ])

(* --- lw_spectral_integration ------------------------------------------- *)

let build_lw_spectral b =
  Build.start_function b "lw_spectral_integration";
  List.iter (Build.add_grid b)
    [ ext_int "nv1"; ext_arr nv1 "pt" ];
  List.iter (Build.add_grid b) (use_shared [ module_arr [ nv1 ] "bnd" ]);
  List.iter (Build.add_grid b)
    [ fo_arr nv1 "fuir"; fo_arr nv1 "fdir";
      out_scalar "toa_lw"; out_scalar "sfc_lw" ];
  Build.add_grid b (ext_int "nv");
  List.iter (Build.add_grid b) [ local_arr [ nv1 ] "fnet"; local_arr [ nv1 ] "sm" ];
  Build.add_grid b (local_real "resid");
  Build.start_step b "band_sums";
  Build.add_stmt b
    (k_loop [ S.assign_idx "bnd" [ E.var "k" ] (E.call "lw_band_sum" [ E.var "k" ]) ]);
  Build.start_step b "spectral_correction";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fuir" [ E.var "k" ]
           E.(idx "fuir" [ var "k" ]
              * (real 1.0 + real 0.1 * idx "bnd" [ var "k" ]
                            / (real 1.0 + idx "bnd" [ var "k" ])));
       ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fdir" [ E.var "k" ]
           E.(idx "fdir" [ var "k" ]
              * (real 1.0 + real 0.07 * idx "bnd" [ var "k" ]
                            / (real 1.0 + idx "bnd" [ var "k" ])));
       ]);
  Build.start_step b "net_flux";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fnet" [ E.var "k" ]
           E.(idx "fuir" [ var "k" ] - idx "fdir" [ var "k" ]);
       ]);
  Build.start_step b "smoothing";
  Build.add_stmt b (S.assign_idx "sm" [ E.int 1 ] (E.idx "fnet" [ E.int 1 ]));
  Build.add_stmt b
    (S.assign_idx "sm" [ E.var "nv1" ] (E.idx "fnet" [ E.var "nv1" ]));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 2) ~hi:(E.var "nv")
       [
         S.assign_idx "sm" [ E.var "k" ]
           E.(real 0.25 * idx "fnet" [ var "k" - int 1 ]
              + real 0.5 * idx "fnet" [ var "k" ]
              + real 0.25 * idx "fnet" [ var "k" + int 1 ]);
       ]);
  Build.add_stmt b (S.assign_var "resid" (E.real 0.0));
  Build.add_stmt b
    (k_loop
       [
         S.assign_var "resid"
           E.(var "resid" + call "abs" [ idx "fnet" [ var "k" ] - idx "sm" [ var "k" ] ]);
       ]);
  Build.start_step b "column_totals";
  Build.add_stmt b
    (S.assign_var "toa_lw"
       E.(idx "fuir" [ int 1 ] - idx "fdir" [ int 1 ] + real 1e-9 * var "resid"));
  Build.add_stmt b
    (S.assign_var "sfc_lw" E.(idx "fuir" [ var "nv1" ] - idx "fdir" [ var "nv1" ]))

(* --- sw_spectral_integration -------------------------------------------- *)

let build_sw_spectral b =
  Build.start_function b "sw_spectral_integration";
  List.iter (Build.add_grid b)
    [ ext_int "nv"; ext_int "nv1"; ext_arr nv1 "ph"; ext_arr nv1 "po"; ext_arr nv "dz" ];
  List.iter (Build.add_grid b) (use_shared [ module_arr [ nv1 ] "tsw" ]);
  Build.add_grid b (local_arr [ nv1 ] "fdif");
  Build.add_grid b (local_real "uvabs");
  List.iter (Build.add_grid b)
    [ fo_arr nv1 "fds"; fo_arr nv1 "fus";
      fi_scalar "u0";
      out_scalar "toa_sw"; out_scalar "sfc_sw" ];
  Build.add_grid b (local_real "att");
  Build.start_step b "zero";
  Build.add_stmt b (k_loop [ S.assign_idx "fds" [ E.var "k" ] (E.real 0.0) ]);
  Build.add_stmt b (k_loop [ S.assign_idx "fus" [ E.var "k" ] (E.real 0.0) ]);
  Build.start_step b "attenuation";
  Build.add_stmt b (S.assign_idx "tsw" [ E.int 1 ] (E.real 1.0));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 2) ~hi:(E.var "nv1")
       [
         S.assign_var "att"
           E.(real 2.0e-4 * idx "ph" [ var "k" - int 1 ] * idx "dz" [ var "k" - int 1 ]
              / real 250.0
              + real 30.0 * idx "po" [ var "k" - int 1 ]);
         S.assign_idx "tsw" [ E.var "k" ]
           E.(idx "tsw" [ var "k" - int 1 ]
              * call "exp" [ neg (var "att" / var "u0") ]);
       ]);
  Build.start_step b "direct_beam";
  Build.add_stmt b
    (k_loop [ S.assign_idx "fds" [ E.var "k" ] (E.call "sw_band_sum" [ E.var "k" ]) ]);
  Build.start_step b "reflection";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fus" [ E.var "k" ]
           (E.call "min"
              [
                E.(real 0.15 * idx "fds" [ var "nv1" ] * idx "tsw" [ var "nv1" ]
                   / (idx "tsw" [ var "k" ] + real 1e-9));
                E.idx "fds" [ E.var "k" ];
              ]);
       ]);
  Build.start_step b "diffuse";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fdif" [ E.var "k" ]
           E.(real 0.12 * idx "fds" [ var "k" ] * (real 1.0 - idx "tsw" [ var "k" ]));
       ]);
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "fds" [ E.var "k" ]
           E.(idx "fds" [ var "k" ] + real 0.5 * idx "fdif" [ var "k" ]);
       ]);
  Build.start_step b "uv_absorption";
  Build.add_stmt b (S.assign_var "uvabs" (E.real 0.0));
  Build.add_stmt b
    (S.for_ "k" ~lo:(E.int 1) ~hi:(E.var "nv")
       [
         S.assign_var "uvabs"
           E.(var "uvabs"
              + idx "po" [ var "k" ]
                * (idx "tsw" [ var "k" ] - idx "tsw" [ var "k" + int 1 ]));
       ]);
  Build.start_step b "totals";
  Build.add_stmt b
    (S.assign_var "toa_sw"
       E.(idx "fds" [ int 1 ] - idx "fus" [ int 1 ] - real 20.0 * var "uvabs"));
  Build.add_stmt b
    (S.assign_var "sfc_sw" E.(idx "fds" [ var "nv1" ] - idx "fus" [ var "nv1" ]))

(* --- shortwave_entropy_model --------------------------------------------- *)

let build_sw_entropy b =
  Build.start_function b "shortwave_entropy_model";
  List.iter (Build.add_grid b) [ ext_int "nv1"; ext_arr nv1 "pt" ];
  List.iter (Build.add_grid b)
    [ fo_arr nv1 "fds"; fo_arr nv1 "fus"; fo_arr nv1 "sen_sw" ];
  Build.start_step b "entropy";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "sen_sw" [ E.var "k" ]
           E.(idx "fds" [ var "k" ] * real 4.0 / (real 3.0 * real 5800.0)
              - idx "fus" [ var "k" ] * real 4.0 / (real 3.0 * idx "pt" [ var "k" ]));
       ]);
  Build.start_step b "taper";
  Build.add_stmt b
    (k_loop
       [
         S.assign_idx "sen_sw" [ E.var "k" ]
           E.(idx "sen_sw" [ var "k" ] * (real 1.0 - real 1e-6 * var "k"));
       ])

(* --- entropy_interface ----------------------------------------------------- *)

let build_entropy_interface b =
  Build.start_function b "entropy_interface";
  Build.add_param b (Grid.scalar Types.T_real8 "dtemp");
  Build.add_param b (Grid.scalar Types.T_real8 "qfac");
  List.iter (Build.add_grid b) [ ext_int "nv1" ];
  List.iter (Build.add_grid b) entcon_grids;
  List.iter (Build.add_grid b)
    [ fo_arr nv1 "sen_lw"; fo_arr nv1 "sen_sw";
      out_scalar "ent_total"; out_scalar "toa_sw"; out_scalar "toa_lw";
      out_scalar "olr_win" ];
  Build.add_grid b (local_real "net");
  Build.add_grid b (local_real "bal");
  Build.add_grid b (Grid.scalar Types.T_int "nbad");
  Build.start_step b "constants";
  Build.add_stmt b (S.assign_var "pc1" (E.real 1.19e-2));
  Build.add_stmt b (S.assign_var "pc2" (E.real 1.44));
  Build.add_stmt b (S.assign_var "sigma" (E.real 5.67e-8));
  Build.add_stmt b (S.assign_var "wnwin" (E.real 0.12));
  Build.start_step b "kernels";
  Build.add_stmt b (S.Call ("adjust2", [ E.var "dtemp"; E.var "qfac" ]));
  Build.add_stmt b (S.Call ("longwave_entropy_model", []));
  Build.add_stmt b (S.Call ("lw_spectral_integration", []));
  Build.add_stmt b (S.Call ("sw_spectral_integration", []));
  Build.add_stmt b (S.Call ("shortwave_entropy_model", []));
  Build.start_step b "budget";
  Build.add_stmt b (S.assign_var "ent_total" (E.real 0.0));
  Build.add_stmt b
    (k_loop
       [
         S.assign_var "ent_total"
           E.(var "ent_total" + idx "sen_lw" [ var "k" ] + idx "sen_sw" [ var "k" ]);
       ]);
  Build.add_stmt b (S.assign_var "nbad" (E.int 0));
  Build.add_stmt b
    (k_loop
       [
         S.assign_var "bal"
           E.(idx "sen_lw" [ var "k" ] + idx "sen_sw" [ var "k" ]);
         S.if_
           E.(call "abs" [ var "bal" ] > real 1e6)
           [ S.assign_var "nbad" E.(var "nbad" + int 1) ]
           [];
       ]);
  Build.add_stmt b (S.assign_var "net" E.(var "toa_sw" - var "toa_lw"));
  Build.add_stmt b
    (S.assign_var "olr_win"
       E.(var "olr_win" + real 1e-6 * var "net" + real 1e-9 * var "nbad"))

(** Build the whole GLAF program for the SARB kernels. *)
let program () : Ir_module.program =
  let b = Build.create "sarb_glaf_program" in
  Build.add_module b "sarb_glaf";
  List.iter (Build.add_module_grid b) shared_grids;
  build_adjust2 b;
  build_lw_exchange_up b;
  build_lw_exchange_dn b;
  build_ent_contrib b;
  build_ent_exchange b;
  build_lw_band_sum b;
  build_sw_band_sum b;
  build_longwave b;
  build_lw_spectral b;
  build_sw_spectral b;
  build_sw_entropy b;
  build_entropy_interface b;
  Build.finish b

(** The six Table-1 kernels (excludes the §3.3 helper functions). *)
let kernel_names = Sarb_legacy.kernel_names
