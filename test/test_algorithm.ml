(* Tests for the pure key-enforced race detection algorithm
   (Algorithm 1): the paper's worked examples, the Table 1 scope, and
   qcheck properties over random traces. *)

module A = Kard_core.Algorithm
module K = Kard_core.Key_sets

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run events =
  let t = A.create () in
  (t, A.run t events)

(* {1 Figure 1a: exclusive write} *)

let test_exclusive_write () =
  let _, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 0 };   (* t1 claims wk_o *)
        A.Enter { thread = 2; section = 20 };
        A.Read { thread = 2; obj = 0 };    (* t2 cannot get rk_o *)
        A.Exit { thread = 1 };
        A.Exit { thread = 2 } ]
  in
  check_int "one race" 1 (List.length races);
  let r = List.hd races in
  check_int "faulting thread" 2 r.A.thread;
  check "read access" true (r.A.access = `Read);
  check "holder is t1" true (r.A.holders = [ 1 ])

(* {1 Figure 1b: shared read} *)

let test_shared_read () =
  let t, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Read { thread = 1; obj = 0 };
        A.Enter { thread = 2; section = 20 };
        A.Read { thread = 2; obj = 0 };
        A.Exit { thread = 1 };
        A.Exit { thread = 2 } ]
  in
  check_int "no races" 0 (List.length races);
  (* Both rk holders were recorded while held. *)
  ignore t

(* {1 Table 1 rows} *)

let test_table1_lock_lock () =
  let _, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 0 };
        A.Enter { thread = 2; section = 20 };
        A.Write { thread = 2; obj = 0 };
        A.Exit { thread = 1 };
        A.Exit { thread = 2 } ]
  in
  check_int "write/write race" 1 (List.length races)

let test_table1_lock_nolock () =
  let _, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 0 };
        A.Write { thread = 2; obj = 0 }; (* no lock *)
        A.Exit { thread = 1 } ]
  in
  check_int "race" 1 (List.length races);
  check "faulting side unlocked" true (not (List.hd races).A.in_section

)

let test_table1_nolock_nolock () =
  (* No thread ever claims a key, so key-enforced access sees nothing:
     out of ILU's scope by design. *)
  let _, races =
    run [ A.Write { thread = 1; obj = 0 }; A.Write { thread = 2; obj = 0 } ]
  in
  check_int "out of scope" 0 (List.length races)

let test_same_lock_sequential () =
  (* Same section, serialized: the key is released at exit. *)
  let _, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 0 };
        A.Exit { thread = 1 };
        A.Enter { thread = 2; section = 10 };
        A.Write { thread = 2; obj = 0 };
        A.Exit { thread = 2 } ]
  in
  check_int "no race" 0 (List.length races)

(* {1 Proactive acquisition (lines 2-6)} *)

let test_proactive_acquisition () =
  let t = A.create () in
  (* First visit trains KW(s). *)
  let (_ : A.race list) =
    A.run t
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 7 };
        A.Exit { thread = 1 } ]
  in
  check "kw(s) trained" true (K.Set.mem (K.Wk 7) (A.kw_of_section t 10));
  (* Second visit acquires wk_7 at entry. *)
  let (_ : A.race list) = A.run t [ A.Enter { thread = 2; section = 10 } ] in
  check "acquired at entry" true (K.Set.mem (K.Wk 7) (A.keys_of_thread t 2));
  (* A third thread cannot enter-acquire it concurrently. *)
  let (_ : A.race list) = A.run t [ A.Enter { thread = 3; section = 10 } ] in
  check "not double-granted" false (K.Set.mem (K.Wk 7) (A.keys_of_thread t 3))

let test_read_then_write_upgrades () =
  let t = A.create () in
  let races =
    A.run t
      [ A.Enter { thread = 1; section = 10 };
        A.Read { thread = 1; obj = 3 };
        A.Write { thread = 1; obj = 3 };
        A.Exit { thread = 1 } ]
  in
  check_int "no self race" 0 (List.length races);
  (* Lines 25-26: the write moves the key from KR(s) to KW(s). *)
  check "kw gains" true (K.Set.mem (K.Wk 3) (A.kw_of_section t 10));
  check "kr loses" false (K.Set.mem (K.Rk 3) (A.kr_of_section t 10))

let test_write_vs_concurrent_reader () =
  let _, races =
    run
      [ A.Enter { thread = 1; section = 10 };
        A.Read { thread = 1; obj = 0 };
        A.Enter { thread = 2; section = 20 };
        A.Write { thread = 2; obj = 0 };
        A.Exit { thread = 1 };
        A.Exit { thread = 2 } ]
  in
  check_int "write vs shared read races" 1 (List.length races);
  check "holder is the reader" true ((List.hd races).A.holders = [ 1 ])

(* {1 Nesting and exits} *)

let test_nested_sections () =
  let t = A.create () in
  let races =
    A.run t
      [ A.Enter { thread = 1; section = 10 };
        A.Write { thread = 1; obj = 1 };
        A.Enter { thread = 1; section = 11 };
        A.Write { thread = 1; obj = 2 };
        A.Exit { thread = 1 } ]
  in
  check_int "no races" 0 (List.length races);
  (* Inner exit restored the outer key set: wk_1 kept, wk_2 dropped. *)
  check "outer key kept" true (K.Set.mem (K.Wk 1) (A.keys_of_thread t 1));
  check "inner key released" false (K.Set.mem (K.Wk 2) (A.keys_of_thread t 1));
  check_int "still in outer section" 1 (List.length (A.section_stack t 1))

let test_unbalanced_exit () =
  let t = A.create () in
  check "exit with no section rejected" true
    (try
       ignore (A.step t (A.Exit { thread = 1 }));
       false
     with Invalid_argument _ -> true)

(* {1 Properties} *)

let event_gen =
  let open QCheck.Gen in
  let thread = int_range 0 2 in
  let obj = int_range 0 3 in
  let section = int_range 10 12 in
  frequency
    [ (2, map2 (fun t s -> `Enter (t, s)) thread section);
      (2, map (fun t -> `Exit t) thread);
      (3, map2 (fun t o -> `Read (t, o)) thread obj);
      (3, map2 (fun t o -> `Write (t, o)) thread obj) ]

(* Make a raw event list well-formed: drop unbalanced exits, close all
   sections at the end. *)
let well_formed raw =
  let depth = Hashtbl.create 4 in
  let get t = Option.value ~default:0 (Hashtbl.find_opt depth t) in
  let events =
    List.filter_map
      (fun e ->
        match e with
        | `Enter (t, s) ->
          Hashtbl.replace depth t (get t + 1);
          Some (A.Enter { thread = t; section = s })
        | `Exit t ->
          if get t > 0 then begin
            Hashtbl.replace depth t (get t - 1);
            Some (A.Exit { thread = t })
          end
          else None
        | `Read (t, o) -> Some (A.Read { thread = t; obj = o })
        | `Write (t, o) -> Some (A.Write { thread = t; obj = o }))
      raw
  in
  let closers =
    Hashtbl.fold
      (fun t d acc -> List.init d (fun _ -> A.Exit { thread = t }) @ acc)
      depth []
  in
  events @ closers

let trace_arbitrary = QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) event_gen)

let prop_exclusive_write =
  QCheck.Test.make ~name:"at most one wk holder; no rk holder alongside wk" ~count:300
    trace_arbitrary (fun raw ->
      let t = A.create () in
      List.for_all
        (fun e ->
          ignore (A.step t e : A.race list);
          List.for_all
            (fun obj ->
              let wk = A.holders t (K.Wk obj) in
              let rk = A.holders t (K.Rk obj) in
              List.length wk <= 1
              && (wk = [] || List.for_all (fun r -> List.mem r wk) rk))
            (A.objects_seen t))
        (well_formed raw))

let prop_no_key_outside_sections =
  QCheck.Test.make ~name:"K(t) empty outside sections" ~count:300 trace_arbitrary (fun raw ->
      let t = A.create () in
      List.for_all
        (fun e ->
          ignore (A.step t e : A.race list);
          List.for_all
            (fun tid ->
              A.section_stack t tid <> [] || K.Set.is_empty (A.keys_of_thread t tid))
            [ 0; 1; 2 ])
        (well_formed raw))

let prop_kf_consistent =
  QCheck.Test.make ~name:"KF is exactly the unheld keys" ~count:300 trace_arbitrary (fun raw ->
      let t = A.create () in
      ignore (A.run t (well_formed raw) : A.race list);
      K.Set.for_all (fun key -> A.holders t key = []) (A.kf t))

let prop_single_thread_race_free =
  QCheck.Test.make ~name:"a single thread never races with itself" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) event_gen))
    (fun raw ->
      let single =
        List.map
          (function
            | `Enter (_, s) -> `Enter (0, s)
            | `Exit _ -> `Exit 0
            | `Read (_, o) -> `Read (0, o)
            | `Write (_, o) -> `Write (0, o))
          raw
      in
      let t = A.create () in
      A.run t (well_formed single) = [])

let prop_consistent_lock_race_free =
  QCheck.Test.make ~name:"one shared section implies no races" ~count:300 trace_arbitrary
    (fun raw ->
      (* Force every Enter to use section 10 and serialize accesses by
         allowing at most one open section at a time; keys still catch
         anything the algorithm would mis-handle. *)
      let t = A.create () in
      let busy = ref None in
      let events =
        List.filter_map
          (fun e ->
            match e, !busy with
            | A.Enter { thread; _ }, None ->
              busy := Some thread;
              Some (A.Enter { thread; section = 10 })
            | A.Enter _, Some _ -> None
            | A.Exit { thread }, Some owner when owner = thread ->
              busy := None;
              Some e
            | A.Exit _, _ -> None
            | (A.Read { thread; _ } | A.Write { thread; _ }), Some owner when owner = thread ->
              Some e
            | (A.Read _ | A.Write _), _ -> None)
          (well_formed raw)
      in
      let closers =
        match !busy with
        | Some thread -> [ A.Exit { thread } ]
        | None -> []
      in
      A.run t (events @ closers) = [])

let () =
  Alcotest.run "kard_algorithm"
    [ ( "figure1",
        [ Alcotest.test_case "exclusive write" `Quick test_exclusive_write;
          Alcotest.test_case "shared read" `Quick test_shared_read ] );
      ( "table1",
        [ Alcotest.test_case "lock vs lock" `Quick test_table1_lock_lock;
          Alcotest.test_case "lock vs no-lock" `Quick test_table1_lock_nolock;
          Alcotest.test_case "no-lock vs no-lock" `Quick test_table1_nolock_nolock;
          Alcotest.test_case "same lock sequential" `Quick test_same_lock_sequential ] );
      ( "acquisition",
        [ Alcotest.test_case "proactive" `Quick test_proactive_acquisition;
          Alcotest.test_case "read then write upgrades" `Quick test_read_then_write_upgrades;
          Alcotest.test_case "write vs reader" `Quick test_write_vs_concurrent_reader ] );
      ( "nesting",
        [ Alcotest.test_case "nested sections" `Quick test_nested_sections;
          Alcotest.test_case "unbalanced exit" `Quick test_unbalanced_exit ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_exclusive_write;
          QCheck_alcotest.to_alcotest prop_no_key_outside_sections;
          QCheck_alcotest.to_alcotest prop_kf_consistent;
          QCheck_alcotest.to_alcotest prop_single_thread_race_free;
          QCheck_alcotest.to_alcotest prop_consistent_lock_race_free ] ) ]
