(* Long-lived socket serving: wire protocol round trips, compile-cache
   behavior, admission control / load shedding, drain-then-exit, and
   survival of client crashes, malformed requests and worker deaths.

   Each test runs a real server (accept loop + readers + executors on
   their own domains) against a throwaway socket path; the finaliser
   always drains the server and restores the process-global pool and
   injection state, since the suites share one process. *)

open Glaf_runtime
open Glaf_service

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* The value at the key [path] of a JSON response line; an unparsable
   line fails the test. *)
let json_at path line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparsable response %S: %s" line e
  | Ok j -> List.fold_left (fun v k -> Option.bind v (Json.field k)) (Some j) path

let json_float path line =
  match json_at path line with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "no number at %s in %s" (String.concat "." path) line

let check_json msg path expected line =
  check_bool msg true (json_at path line = Some expected)

(* Two distinct kernels so cache keying and per-script dispatch are
   observable from the responses: pi_mid sums the quadrature midpoint
   rule, triple is trivially different. *)
let pi_script =
  {|program lsn_pi
module m
function pi_mid returns real8
  param n integer
  grid acc real8
  grid h real8
  step integrate
    set h = 1.0 / n
    set acc = 0.0
    foreach i = 1, n schedule static
      set acc = acc + 4.0 / (1.0 + ((i - 0.5) * h) * ((i - 0.5) * h))
    end foreach
    return acc * h
end program
|}

let triple_script =
  {|program lsn_triple
module m
function triple returns real8
  param x real8
  step compute
    return x * 3.0
end program
|}

(* A family of distinct one-function scripts, for cache keying and
   eviction. *)
let variant_script k =
  Printf.sprintf
    {|program cache_v%d
module m
function f returns real8
  param x real8
  step compute
    return x * %d.0
end program
|}
    k k

let restore () =
  Faultinject.clear ();
  Pool.reset_health ();
  Pool.set_max_respawns Pool.default_max_respawns

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "oglaf_lsn_%d_%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a server, run [f path server], then drain it and restore
   global state whatever happens.  [Listener.serve] returns the final
   stats through the domain join, handed to [after] for assertions on
   the drained server. *)
let with_server ?(config_f = fun c -> c) ?(script = pi_script)
    ?(after = fun (_ : Listener.stats) -> ()) f =
  Fun.protect ~finally:restore @@ fun () ->
  let path = fresh_sock () in
  let config = config_f (Listener.default_config ~socket:path) in
  match Listener.create ~config script with
  | Error fault -> Alcotest.failf "server create: %s" (Fault.to_string fault)
  | Ok srv ->
    let dom = Domain.spawn (fun () -> Listener.serve srv) in
    let final = ref None in
    Fun.protect
      ~finally:(fun () ->
        Listener.request_stop srv;
        final := Some (Domain.join dom);
        (try Sys.remove path with Sys_error _ -> ()))
      (fun () -> f path srv);
    match !final with Some st -> after st | None -> ()

let recv_exn cl =
  match Listener.Client.recv_line ~timeout_s:30.0 cl with
  | Some line -> line
  | None -> Alcotest.fail "no response from server"

let request_exn cl line =
  Listener.Client.send_line cl line;
  recv_exn cl

(* --- protocol round trips ------------------------------------------------- *)

let test_round_trip () =
  with_server @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let r1 = request_exn cl "run pi_mid(1000)" in
  check_bool "ok" true (contains r1 "\"ok\":true");
  check_bool "seq 1" true (contains r1 "\"seq\":1");
  check_bool "echoes the call" true (contains r1 "\"call\":\"pi_mid(1000)\"");
  check_bool "value near pi" true (contains r1 "\"value\":\"3.14");
  let r2 = request_exn cl "run pi_mid(10)" in
  check_bool "seq advances per connection" true (contains r2 "\"seq\":2");
  (* a second connection starts its own sequence *)
  let cl2 = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl2) @@ fun () ->
  let r3 = request_exn cl2 "run pi_mid(10)" in
  check_bool "fresh connection restarts seq" true (contains r3 "\"seq\":1")

let test_malformed_requests_keep_connection () =
  with_server
    ~after:(fun st ->
      check_int "rejected counted" 3 st.Listener.ls_rejected;
      check_int "nothing shed" 0 st.Listener.ls_shed)
  @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  (* unknown verb *)
  let r = request_exn cl "bogus request" in
  check_bool "parse fault" true (contains r "\"class\":\"parse\"");
  check_bool "fault is ok:false" true (contains r "\"ok\":false");
  (* malformed call *)
  let r = request_exn cl "run pi_mid(((" in
  check_bool "bad call is a parse fault" true (contains r "\"class\":\"parse\"");
  (* bad escape in an inline script *)
  let r = request_exn cl "run f(1)\t\\q" in
  check_bool "bad escape rejected" true (contains r "unknown escape");
  (* the connection still serves *)
  let r = request_exn cl "run pi_mid(10)" in
  check_bool "connection survives" true (contains r "\"ok\":true");
  check_bool "seq counted the rejects" true (contains r "\"seq\":4")

let test_blank_and_crlf_lines_ignored () =
  with_server @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  (* blank lines don't consume sequence numbers; CRLF is accepted *)
  Listener.Client.send_line cl "";
  Listener.Client.send_line cl "run pi_mid(10)\r";
  let r = recv_exn cl in
  check_bool "crlf request served" true (contains r "\"ok\":true");
  check_bool "blank line skipped" true (contains r "\"seq\":1")

(* --- inline scripts through the compile cache ----------------------------- *)

let test_inline_script_cache () =
  let steady_calls = 40 in
  with_server
    ~after:(fun st ->
      (* create() compiles the default script (miss 1); the inline
         triple script misses once (miss 2) and hits once; the broken
         script is a miss that is never cached (miss 3); the default
         script resent inline hits the same entry as startup *)
      check_int "misses" 3 st.Listener.ls_cache.Progcache.cs_misses;
      check_int "hits" (2 + steady_calls) st.Listener.ls_cache.Progcache.cs_hits;
      check_bool "steady-state hit rate >= 90%" true
        (Progcache.hit_rate st.Listener.ls_cache >= 0.90))
  @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let inline_req call script =
    Printf.sprintf "run %s\t%s" call (Listener.escape_script script)
  in
  let r = request_exn cl (inline_req "triple(2.5)" triple_script) in
  check_bool "inline script executes" true (contains r "\"value\":\"7.5");
  let r = request_exn cl (inline_req "triple(4.0)" triple_script) in
  check_bool "cached script executes" true (contains r "\"value\":\"12\"");
  (* the startup script's cache entry is shared with inline requests *)
  let r = request_exn cl (inline_req "pi_mid(10)" pi_script) in
  check_bool "default script hits its cache entry" true
    (contains r "\"ok\":true");
  (* a broken inline script is a classified fault, not a crash *)
  let r = request_exn cl (inline_req "f(1)" "program nope\nthis is not gpi\n") in
  check_bool "compile error classified" true (contains r "\"ok\":false");
  check_bool "still serving" true
    (contains (request_exn cl "run pi_mid(10)") "\"ok\":true");
  (* steady state: lock-step requests cycling both cached scripts are
     all hits *)
  for i = 1 to steady_calls do
    let r =
      if i mod 2 = 0 then request_exn cl (inline_req "triple(1.0)" triple_script)
      else request_exn cl (inline_req "pi_mid(10)" pi_script)
    in
    check_bool "steady call ok" true (contains r "\"ok\":true")
  done

(* [run <call>] requests run the startup unit outside the cache, so its
   entry is pinned: more distinct inline scripts than the cache holds
   evict others, never it, and the unit keeps its compile record — the
   same compiled program, and a run count that keeps growing. *)
let test_startup_unit_survives_eviction () =
  let module I = Glaf_interp.Interp in
  with_server @@ fun path srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let run_default () = check_bool "default call ok" true (contains (request_exn cl "run pi_mid(100)") "\"ok\":true") in
  let probe () =
    let st = I.make_state ~printer:ignore srv.Listener.default_compiled.Serve.co_unit in
    let runs = List.fold_left (fun a r -> if r.I.r_label = "sub pi_mid" then a + r.I.r_runs else a) 0 (I.bytecode_stats_for st) in
    (I.compiled_program st "pi_mid", runs)
  in
  run_default ();
  let p0, runs0 = probe () in
  check_bool "pi_mid compiled" true (p0 <> None);
  let capacity = (Progcache.stats srv.Listener.cache).Progcache.cs_capacity in
  for k = 1 to capacity + 2 do
    let r = request_exn cl (Printf.sprintf "run f(1.0)\t%s" (Listener.escape_script (variant_script k))) in
    check_bool "inline call ok" true (contains r "\"ok\":true")
  done;
  check_bool "the cache evicted" true ((Progcache.stats srv.Listener.cache).Progcache.cs_evictions > 0);
  run_default ();
  let p1, runs1 = probe () in
  check_bool "same compiled program" true
    (match (p0, p1) with Some a, Some b -> a == b | _ -> false);
  check_bool (Printf.sprintf "run count grows (%d -> %d)" runs0 runs1) true (runs1 > runs0)

let test_escape_round_trip () =
  let cases =
    [ ""; "plain"; "tabs\tand\nnewlines\r\n"; "back\\slash\\\\n"; "\\" ]
  in
  List.iter
    (fun s ->
      match Listener.unescape_script (Listener.escape_script s) with
      | Ok s' -> check_string "escape round trip" s s'
      | Error e -> Alcotest.failf "round trip failed on %S: %s" s e)
    cases;
  (* unescape rejects junk rather than guessing *)
  check_bool "dangling backslash" true
    (match Listener.unescape_script "abc\\" with Error _ -> true | Ok _ -> false);
  check_bool "unknown escape" true
    (match Listener.unescape_script "\\q" with Error _ -> true | Ok _ -> false)

(* --- admission control / shedding ----------------------------------------- *)

let test_overload_sheds_with_structured_fault () =
  let overloads_received = ref (-1) in
  with_server
    ~config_f:(fun c ->
      { c with Listener.lc_max_pending = 1; lc_executors = 1; lc_threads = Some 1 })
    ~after:(fun st ->
      check_int "every shed request answered with an overload fault"
        !overloads_received st.Listener.ls_shed)
  @@ fun path _srv ->
  Fun.protect ~finally:Faultinject.clear @@ fun () ->
  (* every region sleeps 100ms, so the single executor is busy while
     the pipelined burst lands in the reader *)
  (match Faultinject.parse_plan "delay-chunk:0:100" with
  | Ok p -> Faultinject.set_plan p
  | Error msg -> Alcotest.fail msg);
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let n = 8 in
  for _ = 1 to n do
    Listener.Client.send_line cl "run pi_mid(100)"
  done;
  let responses = List.init n (fun _ -> recv_exn cl) in
  let overloads =
    List.length
      (List.filter (fun r -> contains r "\"class\":\"overload\"") responses)
  in
  let oks =
    List.length (List.filter (fun r -> contains r "\"ok\":true") responses)
  in
  check_int "every request answered" n (List.length responses);
  check_bool
    (Printf.sprintf "burst past the high-water mark sheds (%d overloads)"
       overloads)
    true (overloads >= 1);
  check_int "answered = ok + shed" n (oks + overloads);
  overloads_received := overloads;
  (* the overload fault carries the admission numbers *)
  let sample =
    List.find (fun r -> contains r "\"class\":\"overload\"") responses
  in
  check_bool "pending field present" true
    (match json_at [ "fault"; "pending" ] sample with Some (Num _) -> true | _ -> false);
  check_json "limit field present" [ "fault"; "limit" ] (Json.int 1) sample

let test_status_endpoint () =
  with_server ~config_f:(fun c -> { c with Listener.lc_max_pending = 17 })
  @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  ignore (request_exn cl "run pi_mid(10)");
  let st = request_exn cl "status" in
  check_json "ok line" [ "ok" ] (Bool true) st;
  check_json "health" [ "status"; "health" ] (Str "healthy") st;
  check_json "not draining" [ "status"; "draining" ] (Bool false) st;
  check_json "max_pending echoed" [ "status"; "max_pending" ] (Json.int 17) st;
  check_json "served count" [ "status"; "ok" ] (Json.int 1) st;
  check_bool "cache block" true
    (match json_at [ "status"; "cache" ] st with Some (Obj _) -> true | _ -> false);
  check_json "status consumes a seq" [ "seq" ] (Json.int 2) st

(* every completed run — ok or fault — lands one wall-time sample in
   the rolling latency window; status surfaces the window size, the
   sample count, and the nearest-rank p50/p99 *)
let test_status_latency () =
  let n = 5 in
  with_server
    ~after:(fun st ->
      check_int "final stats count the calls" n st.Listener.ls_calls;
      check_bool "final p50 positive" true (st.Listener.ls_p50_ms > 0.0);
      check_bool "p99 dominates p50" true
        (st.Listener.ls_p99_ms >= st.Listener.ls_p50_ms))
  @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  for _ = 1 to n do
    ignore (request_exn cl "run pi_mid(50)")
  done;
  let st = request_exn cl "status" in
  check_json "window advertised" [ "status"; "latency"; "window" ] (Json.int 256) st;
  check_json "count covers the calls" [ "status"; "latency"; "count" ] (Json.int n) st;
  check_bool "p50 positive" true (json_float [ "status"; "latency"; "p50_ms" ] st > 0.0);
  check_bool "p99 dominates p50" true
    (json_float [ "status"; "latency"; "p99_ms" ] st
    >= json_float [ "status"; "latency"; "p50_ms" ] st)

(* Latency spans admission to the response write: with one executor, a
   fast request pipelined behind a slow one waits out the slow call,
   so both window samples cover at least the slow call's execution. *)
let test_latency_counts_queue_wait () =
  with_server
    ~config_f:(fun c -> { c with Listener.lc_executors = 1; lc_threads = Some 1 })
  @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  (* one write, so one read delivers both requests: their latency
     samples start together, before the single executor takes the slow
     one, however late the reader admits the fast one *)
  Listener.Client.send_line cl "run pi_mid(500000)\nrun pi_mid(10)";
  let slow = recv_exn cl and fast = recv_exn cl in
  check_json "slow answered" [ "seq" ] (Json.int 1) slow;
  check_json "fast answered" [ "seq" ] (Json.int 2) fast;
  let slow_ms = json_float [ "ms" ] slow in
  let st = request_exn cl "status" in
  let p50 = json_float [ "status"; "latency"; "p50_ms" ] st
  and p99 = json_float [ "status"; "latency"; "p99_ms" ] st in
  check_bool (Printf.sprintf "p99 %.3f >= slow call %.3f ms" p99 slow_ms) true
    (p99 >= slow_ms);
  check_bool (Printf.sprintf "p50 %.3f counts the queue wait" p50) true
    (p50 >= slow_ms)

(* An oversized request must be rejected whether its newline trails in
   later chunks (discard mode) or arrives inside the same read chunk
   that blew the cap — the second case used to slip through. *)
let test_oversize_line_rejected () =
  with_server @@ fun path _srv ->
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let flood = String.make (Serve.max_call_line_bytes + 100) 'x' in
  (* complete oversized line, newline included in the payload *)
  let r = request_exn cl ("run " ^ flood) in
  check_bool "oversized line is a parse fault" true
    (contains r "\"class\":\"parse\"");
  check_bool "fault names the cap" true (contains r "exceeds");
  (* the connection resyncs and keeps serving *)
  let r = request_exn cl "run pi_mid(10)" in
  check_bool "connection survives the flood" true (contains r "\"ok\":true")

(* Shed requests must not cost a compile: with a 1-deep queue and a
   slow single executor, a pipelined burst of distinct inline scripts
   may only add cache misses for the requests that were admitted. *)
let slow_variant_script k =
  Printf.sprintf
    {|program lsn_slow%d
module m
function f returns real8
  param n integer
  grid acc real8
  step compute
    set acc = 0.0
    foreach i = 1, n schedule static
      set acc = acc + %d.0
    end foreach
    return acc
end program
|}
    k k

let test_shed_requests_skip_compile () =
  with_server
    ~config_f:(fun c ->
      { c with Listener.lc_max_pending = 1; lc_executors = 1; lc_threads = Some 1 })
    ~after:(fun st ->
      check_bool "burst shed something" true (st.Listener.ls_shed >= 1);
      (* misses = startup compile + one per *admitted* distinct script;
         shed requests never reach the cache *)
      check_int "compile only after admission"
        (1 + st.Listener.ls_ok + st.Listener.ls_failed)
        st.Listener.ls_cache.Progcache.cs_misses)
  @@ fun path _srv ->
  Fun.protect ~finally:Faultinject.clear @@ fun () ->
  (match Faultinject.parse_plan "delay-chunk:0:100" with
  | Ok p -> Faultinject.set_plan p
  | Error msg -> Alcotest.fail msg);
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let n = 8 in
  for k = 1 to n do
    Listener.Client.send_line cl
      (Printf.sprintf "run f(100)\t%s"
         (Listener.escape_script (slow_variant_script k)))
  done;
  let responses = List.init n (fun _ -> recv_exn cl) in
  check_int "every request answered" n (List.length responses)

(* --- resilience ----------------------------------------------------------- *)

let test_client_crash_leaves_server_up () =
  with_server
    ~after:(fun st ->
      check_int "both connections accepted" 2 st.Listener.ls_accepted)
  @@ fun path _srv ->
  (* first client sends a call and vanishes without reading *)
  let cl1 = Listener.Client.connect path in
  Listener.Client.send_line cl1 "run pi_mid(1000)";
  Listener.Client.close cl1;
  (* the server must keep serving other connections *)
  let cl2 = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl2) @@ fun () ->
  let r = request_exn cl2 "run pi_mid(10)" in
  check_bool "second client served after a crash" true (contains r "\"ok\":true")

(* Disconnected clients must release their fd and reader domain while
   the server keeps running — not pile up until final drain. *)
let count_open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let poll_until ?(timeout_s = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.05);
      go ()
    end
  in
  go ()

let test_short_lived_clients_release_fds () =
  with_server
    ~after:(fun st ->
      check_int "all connections accepted" 20 st.Listener.ls_accepted)
  @@ fun path srv ->
  let fds_before = count_open_fds () in
  for _ = 1 to 20 do
    let cl = Listener.Client.connect path in
    Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
    let r = request_exn cl "run pi_mid(10)" in
    check_bool "served" true (contains r "\"ok\":true")
  done;
  (* the accept loop reaps closed connections within its poll tick *)
  check_bool "connection registry drains to zero" true
    (poll_until (fun () -> Listener.live_connections srv = 0));
  match (fds_before, count_open_fds ()) with
  | Some before, Some after ->
    check_bool
      (Printf.sprintf "no fd leak across 20 connections (%d -> %d)" before
         after)
      true
      (after <= before + 2)
  | _ -> ()  (* no /proc: the registry check above still holds *)

(* Connections past the cap are shed at accept with one overload fault
   line at seq 0, and the server keeps serving the live ones. *)
let test_connection_cap_sheds () =
  with_server
    ~config_f:(fun c -> { c with Listener.lc_max_conns = 2 })
    ~after:(fun st ->
      check_bool "refused connection counted as shed" true
        (st.Listener.ls_shed >= 1))
  @@ fun path _srv ->
  let cl1 = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl1) @@ fun () ->
  let cl2 = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl2) @@ fun () ->
  (* lock-step requests guarantee both readers are registered *)
  ignore (request_exn cl1 "run pi_mid(10)");
  ignore (request_exn cl2 "run pi_mid(10)");
  let cl3 = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl3) @@ fun () ->
  (match Listener.Client.recv_line ~timeout_s:30.0 cl3 with
  | None -> Alcotest.fail "no shed response on the refused connection"
  | Some r ->
    check_bool "overload fault" true (contains r "\"class\":\"overload\"");
    check_bool "connection-level seq 0" true (contains r "\"seq\":0");
    check_bool "cap echoed as limit" true (contains r "\"limit\":2"));
  (* the refused connection is closed server-side: EOF, not a hang *)
  check_bool "refused connection closed" true
    (Listener.Client.recv_line ~timeout_s:30.0 cl3 = None);
  (* live connections keep serving *)
  let r = request_exn cl1 "run pi_mid(10)" in
  check_bool "live connection unaffected" true (contains r "\"ok\":true")

let test_degraded_mode_keeps_answering () =
  with_server
    ~config_f:(fun c ->
      { c with Listener.lc_threads = Some 4; lc_retries = 2; lc_executors = 1 })
  @@ fun path _srv ->
  (* warm the pool, then make the first worker death unrecoverable:
     zero respawn budget degrades the pool to sequential serving *)
  Pool.run ~threads:4 ~lo:1 ~hi:100 (fun _ _ _ -> ());
  Pool.set_max_respawns 0;
  (match Faultinject.parse_plan "kill-worker:0" with
  | Ok p -> Faultinject.set_plan p
  | Error msg -> Alcotest.fail msg);
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  let r = request_exn cl "run pi_mid(1000)" in
  (* the injected death costs the first attempt; the retry runs in
     degraded sequential mode and still answers correctly *)
  check_bool "call answered despite exhausted respawn budget" true
    (contains r "\"ok\":true");
  check_bool "value near pi" true (contains r "\"value\":\"3.14");
  let st = request_exn cl "status" in
  check_bool "status reports degraded health" true
    (match json_at [ "status"; "health" ] st with
    | Some (Str h) -> String.starts_with ~prefix:"degraded" h
    | _ -> false)

let test_drain_answers_admitted_requests () =
  with_server
    ~config_f:(fun c -> { c with Listener.lc_executors = 1; lc_threads = Some 1 })
    ~after:(fun st ->
      check_bool "draining flagged" true st.Listener.ls_draining;
      check_int "every admitted call answered" 3
        (st.Listener.ls_ok + st.Listener.ls_failed);
      check_int "queue fully drained" 0 st.Listener.ls_pending)
  @@ fun path srv ->
  Fun.protect ~finally:Faultinject.clear @@ fun () ->
  (match Faultinject.parse_plan "delay-chunk:0:50" with
  | Ok p -> Faultinject.set_plan p
  | Error msg -> Alcotest.fail msg);
  let cl = Listener.Client.connect path in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  Listener.Client.send_line cl "run pi_mid(100)";
  Listener.Client.send_line cl "run pi_mid(100)";
  Listener.Client.send_line cl "run pi_mid(100)";
  (* the first response proves the reader admitted the whole burst
     (it read all three lines before the executor answered one) *)
  let r1 = recv_exn cl in
  check_bool "first answered" true (contains r1 "\"ok\":true");
  Listener.request_stop srv;
  (* drain: the two still-queued calls are answered before exit *)
  let r2 = recv_exn cl in
  let r3 = recv_exn cl in
  check_bool "second answered during drain" true (contains r2 "\"ok\":true");
  check_bool "third answered during drain" true (contains r3 "\"ok\":true")

let test_socket_unlinked_after_drain () =
  let path_ref = ref "" in
  with_server (fun path _srv -> path_ref := path);
  check_bool "socket file removed" false (Sys.file_exists !path_ref);
  (* and the path is immediately reusable by a new server *)
  with_server @@ fun path2 _srv ->
  let cl = Listener.Client.connect path2 in
  Fun.protect ~finally:(fun () -> Listener.Client.close cl) @@ fun () ->
  check_bool "fresh server on a reused tempdir serves" true
    (contains (request_exn cl "run pi_mid(10)") "\"ok\":true")

let test_live_socket_not_stolen () =
  with_server @@ fun path _srv ->
  match Listener.create ~config:(Listener.default_config ~socket:path) pi_script with
  | exception Listener.Listener_error msg ->
    check_bool "error names the live socket" true (contains msg "already listening")
  | Ok _ -> Alcotest.fail "second server bound a live socket"
  | Error f -> Alcotest.failf "wrong error: %s" (Fault.to_string f)

(* --- compile cache unit tests --------------------------------------------- *)

let test_progcache_hit_miss () =
  let c = Progcache.create ~capacity:4 () in
  (match Progcache.find_or_compile c (variant_script 1) with
  | Ok _, `Miss -> ()
  | _, `Hit -> Alcotest.fail "first lookup hit"
  | Error f, _ -> Alcotest.failf "compile failed: %s" (Fault.to_string f));
  (match Progcache.find_or_compile c (variant_script 1) with
  | Ok _, `Hit -> ()
  | _ -> Alcotest.fail "second lookup missed");
  (* whitespace changes are different keys: content hash, no
     normalization *)
  (match Progcache.find_or_compile c (variant_script 1 ^ "\n") with
  | Ok _, `Miss -> ()
  | _ -> Alcotest.fail "trailing newline should be a different key");
  let st = Progcache.stats c in
  check_int "hits" 1 st.Progcache.cs_hits;
  check_int "misses" 2 st.Progcache.cs_misses;
  check_int "size" 2 st.Progcache.cs_size;
  check_bool "hit rate" true (abs_float (Progcache.hit_rate st -. 1.0 /. 3.0) < 1e-9)

let test_progcache_lru_eviction () =
  let c = Progcache.create ~capacity:2 () in
  let get k = ignore (Progcache.find_or_compile c (variant_script k)) in
  get 1;
  get 2;
  get 1;  (* 1 is now most recently used *)
  get 3;  (* evicts 2 *)
  (match Progcache.find_or_compile c (variant_script 1) with
  | Ok _, `Hit -> ()
  | _ -> Alcotest.fail "recently-used entry was evicted");
  (match Progcache.find_or_compile c (variant_script 2) with
  | Ok _, `Miss -> ()
  | _ -> Alcotest.fail "LRU entry survived past capacity");
  let st = Progcache.stats c in
  check_bool "evictions counted" true (st.Progcache.cs_evictions >= 2);
  check_int "bounded at capacity" 2 st.Progcache.cs_size

(* A script whose entry function calls a non-inlinable one, so running
   it registers a frame plan for its unit. *)
let plan_script k =
  Printf.sprintf
    {|program plan_v%d
module m
function g returns real8
  param x real8
  grid acc real8
  grid k integer
  step sum
    set acc = 0.0
    set k = 0
    while k < 3
      set acc = acc + x
      set k = k + 1
    end while
    return acc
function f returns real8
  param x real8
  step compute
    return g(x) * %d.0
end program
|}
    k k

(* Evicting a script drops its unit's compile record, frame plans
   included, from the units table, so a long-lived listener does not
   accumulate them; a state made before the eviction keeps its record. *)
let test_progcache_purges_frame_plans () =
  let module B = Glaf_interp.Bytecode in
  let module I = Glaf_interp.Interp in
  let c = Progcache.create ~capacity:1 () in
  let compiled k =
    match Progcache.find_or_compile c (plan_script k) with
    | Ok co, _ -> co
    | Error f, _ -> Alcotest.failf "compile failed: %s" (Fault.to_string f)
  in
  let co = compiled 1 in
  let st = I.make_state ~printer:ignore co.Serve.co_unit in
  let f () =
    match I.call st "f" [ Glaf_fortran.Ast.Real_lit (2.0, true) ] with
    | Some v -> check_bool "f ran" true (Glaf_runtime.Value.to_float v = 6.0)
    | None -> Alcotest.fail "f returned nothing"
  in
  f ();
  let record = (I.benv st).B.e_unit in
  check_bool "plan registered" true (B.plan_count record > 0);
  ignore (compiled 2);
  let fresh = (I.benv (I.make_state ~printer:ignore co.Serve.co_unit)).B.e_unit in
  check_bool "evicted unit's record left the table" true (fresh != record);
  check_int "evicted unit keeps no plan" 0 (B.plan_count fresh);
  B.purge_unit co.Serve.co_unit;
  f ();
  check_bool "the state made before keeps its record and plans" true
    ((I.benv st).B.e_unit == record && B.plan_count record > 0)

(* The inline-script shape a served mix sends: a reduction parallel DO,
   distinct per [k]. *)
let mix_script k =
  Printf.sprintf
    {|program leak%d
module m
function f returns real8
  param n integer
  grid acc real8
  step sweep
    set acc = 0.0
    foreach i = 1, n
      set acc = acc + %d.0 * i + 1.0
    end foreach
    return acc
end program
|}
    k k

(* Scripts the cache evicted leave nothing behind: eviction drops the
   unit's compile record, programs and AST memos included, so neither
   the units table nor the live heap grows with the number of distinct
   scripts served. *)
let test_progcache_releases_asts () =
  let c = Progcache.create ~capacity:4 () in
  let call = List.hd (Serve.parse_calls "f(50)") in
  let serve k =
    match Progcache.find_or_compile c (mix_script k) with
    | Ok co, _ -> (
      match Serve.run_call ~threads:1 co call with
      | Ok oc -> check_bool "value" true (oc.Serve.oc_value <> None)
      | Error f -> Alcotest.failf "script %d failed: %s" k (Fault.to_string f))
    | Error f, _ -> Alcotest.failf "compile failed: %s" (Fault.to_string f)
  in
  let settle () =
    Gc.full_major ();
    Gc.full_major ();
    ((Gc.stat ()).Gc.live_words, Glaf_interp.Bytecode.unit_count ())
  in
  for k = 1 to 50 do
    serve k
  done;
  let words50, entries50 = settle () in
  for k = 51 to 200 do
    serve k
  done;
  let words200, entries200 = settle () in
  check_bool (Printf.sprintf "compile records %d -> %d after 150 more scripts" entries50 entries200) true
    (entries200 <= entries50 + 8);
  check_bool (Printf.sprintf "live words %d -> %d after 150 more scripts" words50 words200) true
    (words200 - words50 < 150 * 100)

(* Two misses on one script that compile concurrently: the first
   insert wins and both lookups return its unit, so no caller runs a
   unit the cache does not hold (and no eviction would purge). *)
let test_progcache_lost_race_serves_winner () =
  let missed = Atomic.make 0 in
  let compile script =
    Atomic.incr missed;
    while Atomic.get missed < 2 do
      Domain.cpu_relax ()
    done;
    Serve.compile_result script
  in
  let c = Progcache.create ~capacity:4 ~compile () in
  let other = Domain.spawn (fun () -> Progcache.find_or_compile c (variant_script 1)) in
  let mine = Progcache.find_or_compile c (variant_script 1) in
  match (mine, Domain.join other, Progcache.find_or_compile c (variant_script 1)) with
  | (Ok a, `Miss), (Ok b, `Miss), (Ok cached, `Hit) ->
    check_bool "both misses return one unit" true (a.Serve.co_unit == b.Serve.co_unit);
    check_bool "the cached one" true (cached.Serve.co_unit == a.Serve.co_unit)
  | _ -> Alcotest.fail "expected two misses, then a hit"

let test_progcache_does_not_cache_failures () =
  let c = Progcache.create ~capacity:4 () in
  let bad = "program nope\nthis is not gpi\n" in
  (match Progcache.find_or_compile c bad with
  | Error _, `Miss -> ()
  | Ok _, _ -> Alcotest.fail "garbage compiled"
  | Error _, `Hit -> Alcotest.fail "failure served from cache");
  (match Progcache.find_or_compile c bad with
  | Error _, `Miss -> ()
  | _ -> Alcotest.fail "failure was cached");
  let st = Progcache.stats c in
  check_int "failures keep the cache empty" 0 st.Progcache.cs_size;
  check_int "both lookups missed" 2 st.Progcache.cs_misses

let suites =
  [
    ( "listener.protocol",
      [
        Alcotest.test_case "round trip" `Quick test_round_trip;
        Alcotest.test_case "malformed requests survive" `Quick
          test_malformed_requests_keep_connection;
        Alcotest.test_case "blank and CRLF lines" `Quick
          test_blank_and_crlf_lines_ignored;
        Alcotest.test_case "inline script cache" `Quick test_inline_script_cache;
        Alcotest.test_case "script escaping round trip" `Quick
          test_escape_round_trip;
        Alcotest.test_case "startup unit survives eviction" `Quick
          test_startup_unit_survives_eviction;
      ] );
    ( "listener.admission",
      [
        Alcotest.test_case "overload sheds structured faults" `Quick
          test_overload_sheds_with_structured_fault;
        Alcotest.test_case "oversized line rejected" `Quick
          test_oversize_line_rejected;
        Alcotest.test_case "shed requests skip compile" `Quick
          test_shed_requests_skip_compile;
        Alcotest.test_case "status endpoint" `Quick test_status_endpoint;
        Alcotest.test_case "status latency window" `Quick test_status_latency;
        Alcotest.test_case "latency counts queue wait" `Quick
          test_latency_counts_queue_wait;
      ] );
    ( "listener.resilience",
      [
        Alcotest.test_case "client crash" `Quick
          test_client_crash_leaves_server_up;
        Alcotest.test_case "short-lived clients release fds" `Quick
          test_short_lived_clients_release_fds;
        Alcotest.test_case "connection cap sheds" `Quick
          test_connection_cap_sheds;
        Alcotest.test_case "degraded mode keeps answering" `Quick
          test_degraded_mode_keeps_answering;
        Alcotest.test_case "drain answers admitted requests" `Quick
          test_drain_answers_admitted_requests;
        Alcotest.test_case "socket unlinked after drain" `Quick
          test_socket_unlinked_after_drain;
        Alcotest.test_case "live socket not stolen" `Quick
          test_live_socket_not_stolen;
      ] );
    ( "listener.progcache",
      [
        Alcotest.test_case "hit/miss and content keying" `Quick
          test_progcache_hit_miss;
        Alcotest.test_case "LRU eviction" `Quick test_progcache_lru_eviction;
        Alcotest.test_case "eviction purges frame plans" `Quick
          test_progcache_purges_frame_plans;
        Alcotest.test_case "failures not cached" `Quick
          test_progcache_does_not_cache_failures;
        Alcotest.test_case "lost insert race serves the winner" `Quick
          test_progcache_lost_race_serves_winner;
        Alcotest.test_case "evicted scripts release their ASTs" `Quick
          test_progcache_releases_asts;
      ] );
  ]
