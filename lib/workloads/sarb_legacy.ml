(** The legacy Synoptic SARB code base (synthetic substitute).

    NASA's Synoptic SARB and the Fu-Liou radiative-transfer library are
    not redistributable, so this module carries a physics-shaped
    stand-in with the same integration surface and loop structure the
    paper describes (§2.2, §4.1): legacy modules [fuinput]/[fuoutput]
    with derived-type variables ([fi], [fo]), a COMMON block
    [/entcon/] of model constants, and the six subroutines of Table 1
    — including the two large double-nested (2 x 60-iteration)
    exchange loops in [longwave_entropy_model] that the compiler
    cannot vectorize and that GLAF annotates with
    [!$OMP PARALLEL DO COLLAPSE(2)].

    All profiles are generated analytically, so results are exactly
    reproducible; the numbers are radiative-transfer-{e shaped}, not
    scientifically meaningful. *)

(** The Fu-Liou-style input module (§3.1, §3.5 integration surface). *)
let fuinput_source =
  {|
module fuinput
  implicit none
  integer, parameter :: nv = 60
  integer, parameter :: nv1 = 61
  integer, parameter :: mbx = 12
  integer, parameter :: mbsx = 6
  ! atmospheric profiles on nv1 pressure interfaces
  real*8 :: pp(nv1)
  real*8 :: pt(nv1)
  real*8 :: ph(nv1)
  real*8 :: po(nv1)
  ! layer geometric thickness, metres
  real*8 :: dz(nv)
  type :: fu_config_t
    real*8 :: u0
    real*8 :: ss
    real*8 :: pts
    real*8 :: ee(mbx)
  end type fu_config_t
  type(fu_config_t) :: fi
end module fuinput
|}

(** The Fu-Liou-style output module: everything GLAF code must write
    lives in elements of the TYPE variable [fo] (§3.5). *)
let fuoutput_source =
  {|
module fuoutput
  use fuinput
  implicit none
  type :: fu_out_t
    real*8 :: fds(61)
    real*8 :: fus(61)
    real*8 :: fdir(61)
    real*8 :: fuir(61)
    real*8 :: fwin(61)
    real*8 :: sen_lw(61)
    real*8 :: sen_sw(61)
    real*8 :: hr(60)
  end type fu_out_t
  type(fu_out_t) :: fo
  real*8 :: toa_lw
  real*8 :: toa_sw
  real*8 :: sfc_lw
  real*8 :: sfc_sw
  real*8 :: olr_win
  real*8 :: ent_total
end module fuoutput
|}

(** adjust2 — profile adjustment before the radiation call (Table 1:
    38 SLOC). *)
let adjust2_source =
  {|
subroutine adjust2(dtemp, qfac)
  use fuinput
  implicit none
  real*8 :: dtemp, qfac
  integer :: k, ktrop
  real*8 :: tmin, tmax, qmin, colq, scale
  tmin = 160.0d0
  tmax = 330.0d0
  qmin = 1.0d-9
  ! temperature offset with physical clamps (branchless, vectorizes)
  do k = 1, nv1
    pt(k) = min(max(pt(k) + dtemp, tmin), tmax)
  end do
  ! humidity scaling with floor
  do k = 1, nv1
    ph(k) = max(ph(k) * qfac, qmin)
  end do
  ! renormalize the ozone column to a fixed burden
  colq = 0.0d0
  do k = 1, nv
    colq = colq + 0.5d0 * (po(k) + po(k+1)) * (pp(k+1) - pp(k))
  end do
  scale = 1.0d0
  if (colq > 1.0d-12) then
    scale = 2.6d-3 / colq
  end if
  do k = 1, nv1
    po(k) = po(k) * scale
  end do
  ! tropopause: first level where temperature starts increasing
  ktrop = 1
  do k = 1, nv
    if (pt(k+1) > pt(k)) then
      ktrop = k
      exit
    end if
  end do
  ! gentle stratospheric drying above the tropopause
  do k = 1, nv1
    if (k < ktrop) ph(k) = ph(k) * 0.999d0
  end do
  ! hydrostatic layer thickness from the adjusted temperatures
  do k = 1, nv
    dz(k) = 29.3d0 * 0.5d0 * (pt(k) + pt(k+1)) * alog(pp(k+1) / pp(k))
  end do
  return
end subroutine adjust2
|}

(** longwave_entropy_model — the Table-1 centrepiece (422 SLOC in the
    paper).  Structured in phases so that every loop class of Table 2
    appears: zero-initializations, single-value loads, simple single
    loops, simple double loops, serial recurrences, and the two large
    complex (2 x 60) exchange nests. *)
let longwave_entropy_model_source =
  {|
subroutine longwave_entropy_model()
  use fuinput
  use fuoutput
  implicit none
  common /entcon/ pc1, pc2, sigma, wnwin
  real*8 :: pc1, pc2, sigma, wnwin
  real*8 :: tl(61)
  real*8 :: cld(61)
  real*8 :: bb(61, 12)
  real*8 :: dbb(61, 12)
  real*8 :: tau(60, 12)
  real*8 :: tauc(60, 12)
  real*8 :: taua(60, 12)
  real*8 :: wgt(12)
  real*8 :: cum(61)
  real*8 :: cum9(61)
  real*8 :: flux2(2, 60)
  real*8 :: ent2(2, 60)
  real*8 :: gray(61)
  real*8 :: gray9(61)
  real*8 :: hk(12)
  real*8 :: cwn(12)
  real*8 :: ssa(60, 12)
  real*8 :: asym(60, 12)
  real*8 :: taud(60, 12)
  real*8 :: fdb(61, 12)
  real*8 :: fub(61, 12)
  real*8 :: olrb(12)
  real*8 :: tmid(60)
  real*8 :: lapse(60)
  integer :: k, j, ib, idir
  real*8 :: path, src, acc, tsum, emis_sfc, att, dtq, hnorm, fcld, tr
  ! ---- phase 1: zero-initialization loops (memset class) ----
  do k = 1, nv1
    fo%fuir(k) = 0.0d0
  end do
  do k = 1, nv1
    fo%fdir(k) = 0.0d0
  end do
  do k = 1, nv1
    fo%fwin(k) = 0.0d0
  end do
  do k = 1, nv1
    fo%sen_lw(k) = 0.0d0
  end do
  do k = 1, nv1
    gray(k) = 0.0d0
  end do
  ! ---- phase 2: single-value loads (broadcast class) ----
  do k = 1, nv1
    tl(k) = pt(k)
  end do
  do k = 1, nv1
    cld(k) = ph(k)
  end do
  ! analytic cloud deck peaked near level 20
  do k = 1, nv1
    cld(k) = 0.8d0 * exp(-((k - 20.0d0) / 8.0d0) ** 2)
  end do
  ! ---- phase 3: Planck-like source table (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv1
      bb(k, ib) = pc1 * ib ** 3 / (exp(pc2 * ib * 100.0d0 / tl(k)) - 1.0d0)
    end do
  end do
  ! ---- phase 3b: Planck gradient table (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv1
      dbb(k, ib) = bb(k, ib) * pc2 * ib * 100.0d0 / (tl(k) * tl(k)) &
        * exp(pc2 * ib * 100.0d0 / tl(k)) &
        / (exp(pc2 * ib * 100.0d0 / tl(k)) - 1.0d0)
    end do
  end do
  ! ---- phase 4: per-band gas optical depths (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv
      tau(k, ib) = 0.02d0 * ib * ph(k) * dz(k) / 250.0d0 &
        + 1.2d4 * po(k) * abs(alog(pp(k+1) / pp(k))) / ib
    end do
  end do
  ! ---- phase 4b: cloud optical depths (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv
      tauc(k, ib) = 0.15d0 * cld(k) * exp(-0.08d0 * abs(ib - 6.0d0)) &
        * (1.0d0 + 0.002d0 * (tl(k) - 250.0d0))
    end do
  end do
  ! ---- phase 4c: aerosol optical depths (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv
      taua(k, ib) = 3.0d-4 * exp(-(k - 1.0d0) / 15.0d0) * (1.0d0 + 1.0d0 / ib) &
        * (pp(k+1) - pp(k)) / 17.0d0
    end do
  end do
  ! ---- phase 4d: band overlap combination (simple double loop) ----
  do ib = 1, mbx
    do k = 1, nv
      tau(k, ib) = tau(k, ib) + 0.35d0 * tauc(k, ib) + taua(k, ib) &
        + 0.01d0 * sqrt(tauc(k, ib) * taua(k, ib) + 1.0d-12)
    end do
  end do
  ! ---- phase 4e: single-scatter albedo / asymmetry tables ----
  do ib = 1, mbx
    do k = 1, nv
      ssa(k, ib) = 0.96d0 * tauc(k, ib) / (tau(k, ib) + 1.0d-12)
      asym(k, ib) = 0.85d0 - 0.02d0 * abs(ib - 6.0d0) - 0.04d0 * cld(k)
    end do
  end do
  ! ---- phase 4f: delta-scaled optical depths (two-stream) ----
  do ib = 1, mbx
    do k = 1, nv
      fcld = asym(k, ib) * asym(k, ib)
      taud(k, ib) = (1.0d0 - min(ssa(k, ib), 0.999d0) * fcld) * tau(k, ib)
    end do
  end do
  ! ---- phase 5: band weights (simple single loop) ----
  do ib = 1, mbx
    wgt(ib) = exp(-0.23d0 * (ib - 6.5d0) ** 2)
  end do
  tsum = 0.0d0
  do ib = 1, mbx
    tsum = tsum + wgt(ib)
  end do
  do ib = 1, mbx
    wgt(ib) = wgt(ib) / tsum
  end do
  ! ---- phase 5b: k-distribution weights and band centres ----
  ! coefficient blocks in the style of the Fu-Liou tables
  hk(1) = 0.22d0
  hk(2) = 0.16d0
  hk(3) = 0.13d0
  hk(4) = 0.11d0
  hk(5) = 0.09d0
  hk(6) = 0.08d0
  hk(7) = 0.06d0
  hk(8) = 0.05d0
  hk(9) = 0.04d0
  hk(10) = 0.03d0
  hk(11) = 0.02d0
  hk(12) = 0.01d0
  cwn(1) = 2850.0d0
  cwn(2) = 2500.0d0
  cwn(3) = 2200.0d0
  cwn(4) = 1900.0d0
  cwn(5) = 1700.0d0
  cwn(6) = 1400.0d0
  cwn(7) = 1250.0d0
  cwn(8) = 1100.0d0
  cwn(9) = 980.0d0
  cwn(10) = 800.0d0
  cwn(11) = 670.0d0
  cwn(12) = 540.0d0
  do ib = 1, mbx
    wgt(ib) = wgt(ib) * (0.5d0 + hk(ib)) * (1.0d0 + 1.0d-5 * cwn(ib))
  end do
  ! ---- phase 6: serial cumulative transmissions (recurrences) ----
  cum(1) = 0.0d0
  do k = 2, nv1
    cum(k) = cum(k-1) + taud(k-1, 6)
  end do
  cum9(1) = 0.0d0
  do k = 2, nv1
    cum9(k) = cum9(k-1) + tau(k-1, 9) * (1.0d0 + 0.1d0 * cum9(k-1) / (1.0d0 + cum9(k-1)))
  end do
  do k = 1, nv1
    gray(k) = exp(-cum(k))
  end do
  do k = 1, nv1
    gray9(k) = exp(-cum9(k))
  end do
  ! ---- phase 7: FIRST LARGE EXCHANGE LOOP (complex, 2 x 60) ----
  ! direction 1: upward flux at layer k from emitting layers below;
  ! direction 2: downward flux from layers above.  The cloud branch
  ! inside the j-loop defeats compiler vectorization; GLAF emits
  ! OMP PARALLEL DO COLLAPSE(2) here.
  do idir = 1, 2
    do k = 1, nv
      acc = 0.0d0
      if (idir == 1) then
        ! distant layers contribute negligibly: truncated window
        path = 0.0d0
        do j = k, min(k + 19, nv)
          path = path + tau(j, 6)
          src = bb(j, 6) + 0.25d0 * bb(j, 9)
          if (cld(j) > 0.3d0) then
            src = src * (1.0d0 - 0.55d0 * cld(j))
            path = path + 0.8d0 * cld(j)
          else
            src = src * (1.0d0 + 0.08d0 * cld(j))
          end if
          acc = acc + src * exp(-path) * tau(j, 6)
        end do
        emis_sfc = fi%ee(6) * sigma * fi%pts ** 4
        acc = acc + emis_sfc * exp(-path) / 3.14159d0
      else
        path = 0.0d0
        do j = k, max(k - 19, 1), -1
          path = path + tau(j, 6)
          src = bb(j, 6) + 0.25d0 * bb(j, 3)
          if (cld(j) > 0.3d0) then
            src = src * (1.0d0 - 0.45d0 * cld(j))
            path = path + 0.6d0 * cld(j)
          else
            src = src * (1.0d0 + 0.05d0 * cld(j))
          end if
          acc = acc + src * exp(-path) * tau(j, 6)
        end do
      end if
      flux2(idir, k) = acc * 3.14159d0
    end do
  end do
  ! ---- phase 8: SECOND LARGE EXCHANGE LOOP (complex, 2 x 60) ----
  ! entropy exchange: flux over emission temperature, with a
  ! cloud-sensitive correction term per source layer.
  do idir = 1, 2
    do k = 1, nv
      acc = 0.0d0
      do j = max(k - 12, 1), min(k + 12, nv)
        dtq = tl(j) - tl(k)
        if (abs(dtq) > 2.0d0) then
          acc = acc + flux2(idir, j) * dtq / (tl(j) * tl(k))
        else
          acc = acc + flux2(idir, j) * 2.0d0 / (tl(j) + tl(k)) * 0.01d0
        end if
      end do
      ent2(idir, k) = flux2(idir, k) / tl(k) + 0.05d0 * acc / nv
    end do
  end do
  ! ---- phase 8b: per-band gray flux sweeps (serial recurrences per band) ----
  do ib = 1, mbx
    fdb(1, ib) = 0.0d0
    do k = 2, nv1
      tr = exp(-taud(k-1, ib))
      fdb(k, ib) = fdb(k-1, ib) * tr + bb(k, ib) * (1.0d0 - tr) * 3.14159d0
    end do
  end do
  do ib = 1, mbx
    fub(nv1, ib) = fi%ee(ib) * sigma * fi%pts ** 4 / mbx
    do k = nv, 1, -1
      tr = exp(-taud(k, ib))
      fub(k, ib) = fub(k+1, ib) * tr + bb(k, ib) * (1.0d0 - tr) * 3.14159d0
    end do
  end do
  ! ---- phase 8c: band-integrated TOA diagnostics ----
  do ib = 1, mbx
    olrb(ib) = wgt(ib) * fub(1, ib)
  end do
  ! ---- phase 9: combine directional fluxes (simple single loops) ----
  do k = 1, nv
    fo%fuir(k) = flux2(1, k)
  end do
  do k = 1, nv
    fo%fdir(k) = flux2(2, k)
  end do
  fo%fuir(nv1) = fi%ee(6) * sigma * fi%pts ** 4
  fo%fdir(nv1) = 0.0d0
  do k = 1, nv
    fo%sen_lw(k) = ent2(1, k) + ent2(2, k)
  end do
  fo%sen_lw(nv1) = fo%fuir(nv1) / tl(nv1)
  ! ---- phase 10: window channel (simple single loops) ----
  do k = 1, nv1
    fo%fwin(k) = wnwin * bb(k, 7) * gray(k) * (1.0d0 + wgt(7))
  end do
  do k = 1, nv1
    fo%fwin(k) = fo%fwin(k) + 0.01d0 * wnwin * dbb(k, 7) * gray9(k)
  end do
  ! ---- phase 11: scalar reductions ----
  olr_win = 0.0d0
  do k = 1, nv1
    olr_win = olr_win + fo%fwin(k)
  end do
  ent_total = 0.0d0
  do k = 1, nv1
    ent_total = ent_total + fo%sen_lw(k)
  end do
  do ib = 1, mbx
    olr_win = olr_win + 1.0d-3 * olrb(ib)
  end do
  ! ---- phase 12: heating-rate diagnostic with lapse correction ----
  do k = 1, nv
    tmid(k) = 0.5d0 * (tl(k) + tl(k+1))
  end do
  do k = 1, nv
    lapse(k) = (tl(k+1) - tl(k)) / (1.0d-3 + abs(dz(k)))
  end do
  do k = 1, nv
    hnorm = 8.442d0 / (pp(k+1) - pp(k))
    fo%hr(k) = hnorm * (fo%fuir(k+1) - fo%fuir(k) - fo%fdir(k+1) + fo%fdir(k))
    fo%hr(k) = fo%hr(k) * (1.0d0 + 1.0d-4 * lapse(k)) * (tmid(k) / (tmid(k) + 1.0d0))
  end do
  return
end subroutine longwave_entropy_model
|}

(** lw_spectral_integration — broadband integration over the 12
    longwave bands (Table 1: 75 SLOC). *)
let lw_spectral_integration_source =
  {|
subroutine lw_spectral_integration()
  use fuinput
  use fuoutput
  implicit none
  common /entcon/ pc1, pc2, sigma, wnwin
  real*8 :: pc1, pc2, sigma, wnwin
  real*8 :: bnd(61)
  real*8 :: fnet(61)
  real*8 :: sm(61)
  real*8 :: w, resid
  integer :: k, ib
  ! accumulate band-weighted upward flux into the broadband arrays;
  ! band 6 was already computed by the entropy model, the remaining
  ! bands contribute via the Planck ratio at each level
  do k = 1, nv1
    bnd(k) = 0.0d0
  end do
  do ib = 1, mbx
    w = exp(-0.23d0 * (ib - 6.5d0) ** 2)
    do k = 1, nv1
      bnd(k) = bnd(k) + w * pc1 * ib ** 3 / (exp(pc2 * ib * 100.0d0 / pt(k)) - 1.0d0)
    end do
  end do
  ! scale the directional fluxes by the spectral correction
  ! (bnd is a Planck sum, always positive: no branch needed)
  do k = 1, nv1
    fo%fuir(k) = fo%fuir(k) * (1.0d0 + 0.1d0 * bnd(k) / (1.0d0 + bnd(k)))
  end do
  do k = 1, nv1
    fo%fdir(k) = fo%fdir(k) * (1.0d0 + 0.07d0 * bnd(k) / (1.0d0 + bnd(k)))
  end do
  ! net flux profile
  do k = 1, nv1
    fnet(k) = fo%fuir(k) - fo%fdir(k)
  end do
  ! one-pass 3-point spectral smoothing of the net flux
  sm(1) = fnet(1)
  sm(nv1) = fnet(nv1)
  do k = 2, nv
    sm(k) = 0.25d0 * fnet(k-1) + 0.5d0 * fnet(k) + 0.25d0 * fnet(k+1)
  end do
  ! smoothing residual diagnostic folded into the TOA value
  resid = 0.0d0
  do k = 1, nv1
    resid = resid + abs(fnet(k) - sm(k))
  end do
  ! column totals
  toa_lw = fo%fuir(1) - fo%fdir(1) + 1.0d-9 * resid
  sfc_lw = fo%fuir(nv1) - fo%fdir(nv1)
  return
end subroutine lw_spectral_integration
|}

(** sw_spectral_integration — solar bands (Table 1: 50 SLOC). *)
let sw_spectral_integration_source =
  {|
subroutine sw_spectral_integration()
  use fuinput
  use fuoutput
  implicit none
  real*8 :: tsw(61)
  real*8 :: fdif(61)
  real*8 :: w, att, uvabs
  integer :: k, ib
  do k = 1, nv1
    fo%fds(k) = 0.0d0
  end do
  do k = 1, nv1
    fo%fus(k) = 0.0d0
  end do
  ! serial cumulative attenuation down the column (recurrence)
  tsw(1) = 1.0d0
  do k = 2, nv1
    att = 2.0d-4 * ph(k-1) * dz(k-1) / 250.0d0 + 30.0d0 * po(k-1)
    tsw(k) = tsw(k-1) * exp(-att / fi%u0)
  end do
  ! band-weighted direct beam (simple double loop)
  do ib = 1, mbsx
    w = exp(-0.4d0 * (ib - 2.0d0) ** 2) / 2.2d0
    do k = 1, nv1
      fo%fds(k) = fo%fds(k) + w * fi%ss * fi%u0 * tsw(k) ** (0.6d0 + 0.15d0 * ib)
    end do
  end do
  ! Lambertian surface reflection propagated back up
  do k = 1, nv1
    fo%fus(k) = min(0.15d0 * fo%fds(nv1) * tsw(nv1) / (tsw(k) + 1.0d-9), fo%fds(k))
  end do
  ! diffuse fraction from scattering out of the direct beam
  do k = 1, nv1
    fdif(k) = 0.12d0 * fo%fds(k) * (1.0d0 - tsw(k))
  end do
  do k = 1, nv1
    fo%fds(k) = fo%fds(k) + 0.5d0 * fdif(k)
  end do
  ! ozone UV absorption diagnostic
  uvabs = 0.0d0
  do k = 1, nv
    uvabs = uvabs + po(k) * (tsw(k) - tsw(k+1))
  end do
  toa_sw = fo%fds(1) - fo%fus(1) - 20.0d0 * uvabs
  sfc_sw = fo%fds(nv1) - fo%fus(nv1)
  return
end subroutine sw_spectral_integration
|}

(** shortwave_entropy_model — tiny (Table 1: 13 SLOC). *)
let shortwave_entropy_model_source =
  {|
subroutine shortwave_entropy_model()
  use fuinput
  use fuoutput
  implicit none
  integer :: k
  do k = 1, nv1
    fo%sen_sw(k) = fo%fds(k) * 4.0d0 / (3.0d0 * 5800.0d0) - fo%fus(k) * 4.0d0 / (3.0d0 * pt(k))
  end do
  do k = 1, nv1
    fo%sen_sw(k) = fo%sen_sw(k) * (1.0d0 - 1.0d-6 * k)
  end do
  return
end subroutine shortwave_entropy_model
|}

(** entropy_interface — the orchestration entry point (Table 1: 46
    SLOC).  Sets the COMMON constants and calls the other kernels. *)
let entropy_interface_source =
  {|
subroutine entropy_interface(dtemp, qfac)
  use fuinput
  use fuoutput
  implicit none
  real*8 :: dtemp, qfac
  common /entcon/ pc1, pc2, sigma, wnwin
  real*8 :: pc1, pc2, sigma, wnwin
  integer :: k, nbad
  real*8 :: net, bal
  ! physical constants of the (toy) radiative model
  pc1 = 1.19d-2
  pc2 = 1.44d0
  sigma = 5.67d-8
  wnwin = 0.12d0
  call adjust2(dtemp, qfac)
  call longwave_entropy_model()
  call lw_spectral_integration()
  call sw_spectral_integration()
  call shortwave_entropy_model()
  ! combined entropy budget diagnostic
  ent_total = 0.0d0
  do k = 1, nv1
    ent_total = ent_total + fo%sen_lw(k) + fo%sen_sw(k)
  end do
  ! per-level budget sanity scan (counts pathological levels)
  nbad = 0
  do k = 1, nv1
    bal = fo%sen_lw(k) + fo%sen_sw(k)
    if (abs(bal) > 1.0d6) nbad = nbad + 1
  end do
  ! net balance check folded into the window diagnostic
  net = toa_sw - toa_lw
  olr_win = olr_win + 1.0d-6 * net + 1.0d-9 * nbad
  return
end subroutine entropy_interface
|}

(** Profile initialization + checksum driver used by the wrapper-based
    verification protocol of §4.1.1. *)
let driver_source =
  {|
subroutine sarb_init_profiles()
  use fuinput
  implicit none
  integer :: k, ib
  ! analytic standard-atmosphere-like profiles
  do k = 1, nv1
    pp(k) = 1.0d0 + 1012.0d0 * (k - 1.0d0) / nv
  end do
  do k = 1, nv1
    pt(k) = 216.0d0 + 72.0d0 * (pp(k) / 1013.0d0) ** 0.19d0
  end do
  do k = 1, nv1
    ph(k) = 4.0d-3 * (pp(k) / 1013.0d0) ** 3 + 2.0d-6
  end do
  do k = 1, nv1
    po(k) = 6.0d-6 * exp(-((pp(k) - 35.0d0) / 60.0d0) ** 2) + 3.0d-8
  end do
  fi%u0 = 0.5d0
  fi%ss = 1361.0d0
  fi%pts = 288.2d0
  do ib = 1, mbx
    fi%ee(ib) = 0.98d0 - 0.004d0 * ib
  end do
  return
end subroutine sarb_init_profiles

real*8 function sarb_checksum()
  use fuinput
  use fuoutput
  implicit none
  integer :: k
  real*8 :: s
  s = 0.0d0
  do k = 1, nv1
    s = s + fo%fuir(k) + 2.0d0 * fo%fdir(k) + 3.0d0 * fo%fds(k)
    s = s + 5.0d0 * fo%fus(k) + 7.0d0 * fo%fwin(k)
    s = s + 11.0d0 * fo%sen_lw(k) + 13.0d0 * fo%sen_sw(k)
  end do
  do k = 1, nv
    s = s + 0.1d0 * fo%hr(k)
  end do
  s = s + toa_lw + toa_sw + sfc_lw + sfc_sw + olr_win + ent_total
  sarb_checksum = s
end function sarb_checksum
|}

(** The six Table-1 kernels, in paper order. *)
let kernel_names =
  [
    "lw_spectral_integration";
    "longwave_entropy_model";
    "sw_spectral_integration";
    "shortwave_entropy_model";
    "entropy_interface";
    "adjust2";
  ]

(** Paper's Table 1 SLOC numbers, for the bench comparison. *)
let paper_sloc =
  [
    ("lw_spectral_integration", 75);
    ("longwave_entropy_model", 422);
    ("sw_spectral_integration", 50);
    ("shortwave_entropy_model", 13);
    ("entropy_interface", 46);
    ("adjust2", 38);
  ]

(** Whole legacy code base. *)
let full_source =
  String.concat "\n"
    [
      fuinput_source;
      fuoutput_source;
      adjust2_source;
      longwave_entropy_model_source;
      lw_spectral_integration_source;
      sw_spectral_integration_source;
      shortwave_entropy_model_source;
      entropy_interface_source;
      driver_source;
    ]

let parse () = Glaf_fortran.Parser.parse_string full_source

(** Default adjustment parameters used in tests and benches. *)
let default_dtemp = 1.5
let default_qfac = 1.02
