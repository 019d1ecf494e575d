(* Tests for the shared protocol layer: endpoints, privileges, defect
   classification, specs and message helpers. *)

module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Spec = Resilix_proto.Spec
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown

let test_endpoint_identity () =
  let a = Endpoint.make ~slot:5 ~gen:1 in
  let b = Endpoint.make ~slot:5 ~gen:2 in
  Alcotest.(check bool) "same slot, different generation" false (Endpoint.equal a b);
  Alcotest.(check bool) "equal to itself" true (Endpoint.equal a a);
  Alcotest.(check string) "rendering" "ep:5.1" (Endpoint.to_string a);
  Alcotest.(check bool) "ordered slot-major" true (Endpoint.compare a b < 0)

let test_defect_classification () =
  let cases =
    [
      (Status.Exited 0, Status.D_exit);
      (Status.Exited 3, Status.D_exit);
      (Status.Panicked "x", Status.D_exit);
      (Status.Killed Signal.Sig_segv, Status.D_exception);
      (Status.Killed Signal.Sig_ill, Status.D_exception);
      (Status.Killed Signal.Sig_kill, Status.D_killed_by_user);
      (Status.Killed Signal.Sig_term, Status.D_killed_by_user);
    ]
  in
  List.iter
    (fun (status, expected) ->
      Alcotest.(check string)
        (Status.show_exit_status status)
        (Status.defect_name expected)
        (Status.defect_name (Status.defect_of_exit status)))
    cases

let test_defect_numbers_match_paper () =
  (* Sec. 5.1 numbers the six inputs 1..6 in this order. *)
  let expected =
    [
      (Status.D_exit, 1);
      (Status.D_exception, 2);
      (Status.D_killed_by_user, 3);
      (Status.D_heartbeat, 4);
      (Status.D_complaint, 5);
      (Status.D_update, 6);
    ]
  in
  List.iter
    (fun (d, n) -> Alcotest.(check int) (Status.defect_name d) n (Status.defect_number d))
    expected

let test_privilege_allows () =
  Alcotest.(check bool) "All allows anything" true (Privilege.allows Privilege.All "whatever");
  Alcotest.(check bool) "Only allows members" true
    (Privilege.allows (Privilege.Only [ "a"; "b" ]) "b");
  Alcotest.(check bool) "Only rejects others" false
    (Privilege.allows (Privilege.Only [ "a"; "b" ]) "c")

let test_driver_privileges_are_least_authority () =
  let p = Privilege.driver ~ipc_to:[ "inet" ] ~io_ports:[ (0x300, 0x30B) ] ~irqs:[ 11 ] in
  Alcotest.(check bool) "may talk to inet" true (Privilege.allows p.Privilege.ipc_to "inet");
  Alcotest.(check bool) "may talk to rs (heartbeats)" true
    (Privilege.allows p.Privilege.ipc_to "rs");
  Alcotest.(check bool) "may not talk to pm" false (Privilege.allows p.Privilege.ipc_to "pm");
  Alcotest.(check bool) "own port allowed" true (Privilege.allows_port p 0x305);
  Alcotest.(check bool) "foreign port denied" false (Privilege.allows_port p 0x340);
  Alcotest.(check bool) "own irq" true (Privilege.allows_irq p 11);
  Alcotest.(check bool) "foreign irq" false (Privilege.allows_irq p 13);
  Alcotest.(check bool) "no process management" false
    (Privilege.allows p.Privilege.kcalls "proc_create");
  Alcotest.(check bool) "drivers cannot complain" false p.Privilege.may_complain

let test_server_privileges () =
  let p = Privilege.server ~ipc_to:Privilege.All in
  Alcotest.(check bool) "servers may complain (class 5)" true p.Privilege.may_complain;
  Alcotest.(check bool) "no hardware access" false (Privilege.allows_port p 0x300)

let test_spec_defaults () =
  let s = Spec.make ~name:"x" ~program:"p" ~privileges:Privilege.none () in
  Alcotest.(check int) "default heartbeat 500ms" 500_000 s.Spec.heartbeat_period;
  Alcotest.(check int) "default misses" 4 s.Spec.max_heartbeat_misses;
  Alcotest.(check string) "default policy is direct restart" "" s.Spec.policy

let test_wellknown_slots () =
  List.iter
    (fun (ep, name) ->
      Alcotest.(check (option string))
        name (Some name)
        (Wellknown.name_of_slot ep.Endpoint.slot))
    [
      (Wellknown.pm, "pm");
      (Wellknown.rs, "rs");
      (Wellknown.ds, "ds");
      (Wellknown.vfs, "vfs");
      (Wellknown.mfs, "mfs");
      (Wellknown.inet, "inet");
    ];
  Alcotest.(check (option string)) "dynamic slots unnamed" None
    (Wellknown.name_of_slot Wellknown.first_dynamic_slot)

let test_message_tags () =
  Alcotest.(check string) "tag of a request" "Dev_read"
    (Message.tag (Message.Dev_read { minor = 0; pos = 0; grant = 0; len = 0 }));
  Alcotest.(check string) "tag of a reply" "Rs_reply"
    (Message.tag (Message.Rs_reply { result = Ok () }))

let test_errno_strings () =
  Alcotest.(check string) "EDEADSRCDST" "EDEADSRCDST" (Errno.to_string Errno.E_dead_src_dst);
  Alcotest.(check bool) "all errnos render distinctly" true
    (let all =
       [
         Errno.E_dead_src_dst; E_bad_endpoint; E_no_perm; E_again; E_io; E_noent; E_inval;
         E_nospace; E_busy; E_timeout; E_conn_refused; E_conn_reset; E_bad_fd; E_exist;
         E_not_dir; E_is_dir; E_nodev; E_range; E_nomem;
       ]
     in
     let strings = List.map Errno.to_string all in
     List.length (List.sort_uniq String.compare strings) = List.length all)

(* [allows_port] is a hand-written walk; it must agree with the
   definition over the range list. *)
let prop_allows_port_matches_ranges =
  QCheck.Test.make ~name:"allows_port = exists over inclusive ranges" ~count:500
    QCheck.(
      pair (small_list (pair (int_range 0 200) (int_range 0 200))) (int_range (-5) 205))
    (fun (ranges, port) ->
      let priv = { Privilege.none with Privilege.io_ports = ranges } in
      Privilege.allows_port priv port
      = List.exists (fun (lo, hi) -> port >= lo && port <= hi) ranges)

let tests =
  [
    Alcotest.test_case "endpoint identity" `Quick test_endpoint_identity;
    Alcotest.test_case "exit status -> defect class" `Quick test_defect_classification;
    Alcotest.test_case "defect numbers match Sec. 5.1" `Quick test_defect_numbers_match_paper;
    Alcotest.test_case "privilege allow lists" `Quick test_privilege_allows;
    QCheck_alcotest.to_alcotest prop_allows_port_matches_ranges;
    Alcotest.test_case "driver least authority" `Quick test_driver_privileges_are_least_authority;
    Alcotest.test_case "server privileges" `Quick test_server_privileges;
    Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
    Alcotest.test_case "well-known slots" `Quick test_wellknown_slots;
    Alcotest.test_case "message tags" `Quick test_message_tags;
    Alcotest.test_case "errno strings unique" `Quick test_errno_strings;
  ]
