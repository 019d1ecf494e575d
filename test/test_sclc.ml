(* Tests for the line counter behind Fig. 9. *)

module Sclc = Resilix_sclc.Sclc

let count src =
  let c = Sclc.count_string src in
  (c.Sclc.code, c.Sclc.recovery)

let test_blank_and_comments () =
  let src = "\n\n(* a comment *)\n   \nlet x = 1\n(* multi\n   line\n   comment *)\nlet y = 2\n" in
  Alcotest.(check (pair int int)) "only code lines counted" (2, 0) (count src)

let test_nested_comments () =
  let src = "(* outer (* inner *) still out *)\nlet z = 3\n" in
  Alcotest.(check (pair int int)) "nested comment ignored" (1, 0) (count src)

let test_code_and_comment_same_line () =
  let src = "let a = 1 (* trailing *)\n(* leading *) let b = 2\n" in
  Alcotest.(check (pair int int)) "mixed lines count as code" (2, 0) (count src)

let test_string_literals_not_comments () =
  let src = "let s = \"(* not a comment *)\"\nlet t = 1\n" in
  Alcotest.(check (pair int int)) "comment-looking strings are code" (2, 0) (count src)

let test_recovery_line_marker () =
  let src = "let plain = 1\nlet marked = 2 (*@recovery*)\n" in
  Alcotest.(check (pair int int)) "line marker counts one line" (2, 1) (count src)

let test_recovery_region () =
  let src =
    "let before = 0\n(*@recovery-begin*)\nlet a = 1\nlet b = 2\n(*@recovery-end*)\nlet after = 3\n"
  in
  Alcotest.(check (pair int int)) "region counts its code lines" (4, 2) (count src)

let test_marker_lines_not_code () =
  let src = "(*@recovery-begin*)\n(*@recovery-end*)\n" in
  Alcotest.(check (pair int int)) "bare markers are comments" (0, 0) (count src)

let test_find_repo_root () =
  match Sclc.find_repo_root () with
  | Some root -> Alcotest.(check bool) "dune-project present" true
      (Sys.file_exists (Filename.concat root "dune-project"))
  | None -> Alcotest.fail "repo root not found"

let test_fig9_totals_sane () =
  let rows = Resilix_experiments.Fig9.run () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Resilix_experiments.Fig9.component ^ " counted")
        true
        (r.Resilix_experiments.Fig9.total > 0);
      Alcotest.(check bool)
        (r.Resilix_experiments.Fig9.component ^ " recovery <= total")
        true
        (r.Resilix_experiments.Fig9.recovery <= r.Resilix_experiments.Fig9.total))
    rows;
  (* The paper's headline: PM and microkernel need zero recovery code. *)
  List.iter
    (fun name ->
      let row =
        List.find (fun r -> r.Resilix_experiments.Fig9.component = name) rows
      in
      Alcotest.(check int) (name ^ " recovery LoC") 0 row.Resilix_experiments.Fig9.recovery)
    [ "Process manager"; "Microkernel"; "RAM disk" ]

(* EXPERIMENTS.md's Fig. 9 table must be what [resilix fig9] counts
   now, row by row: a change that moves code between components
   regenerates the table with it.  The doc is a declared dependency of
   this test, so editing it re-runs the check. *)
let fig9_doc_rows root =
  let lines =
    In_channel.with_open_text (Filename.concat root "EXPERIMENTS.md") In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec section = function
    | [] -> Alcotest.fail "no Fig. 9 section in EXPERIMENTS.md"
    | l :: rest -> if String.starts_with ~prefix:"## Fig. 9" l then rest else section rest
  in
  let rec table = function
    | l :: rest when not (String.starts_with ~prefix:"|" l) -> table rest
    | rows -> rows
  in
  let rec take = function
    | l :: rest when String.starts_with ~prefix:"|" l -> l :: take rest
    | _ -> []
  in
  let cells l = List.map String.trim (String.split_on_char '|' l) in
  match take (table (section lines)) with
  | _header :: _rule :: rows ->
      List.map
        (fun l ->
          match cells l with
          | "" :: component :: loc :: recovery :: _ ->
              (component, (int_of_string loc, int_of_string recovery))
          | _ -> Alcotest.fail ("malformed Fig. 9 row: " ^ l))
        rows
  | _ -> Alcotest.fail "no Fig. 9 table in EXPERIMENTS.md"

let test_fig9_table_current () =
  let root = Option.get (Sclc.find_repo_root ()) in
  let measured =
    List.map
      (fun r -> Resilix_experiments.Fig9.(r.component, (r.total, r.recovery)))
      (Resilix_experiments.Fig9.run ~root ())
  in
  Alcotest.(check (list (pair string (pair int int))))
    "EXPERIMENTS.md Fig. 9 rows (component, (LoC, recovery))" measured (fig9_doc_rows root)

let tests =
  [
    Alcotest.test_case "blank lines and comments skipped" `Quick test_blank_and_comments;
    Alcotest.test_case "nested comments" `Quick test_nested_comments;
    Alcotest.test_case "code and comment on one line" `Quick test_code_and_comment_same_line;
    Alcotest.test_case "strings are not comments" `Quick test_string_literals_not_comments;
    Alcotest.test_case "recovery line marker" `Quick test_recovery_line_marker;
    Alcotest.test_case "recovery region" `Quick test_recovery_region;
    Alcotest.test_case "bare markers are not code" `Quick test_marker_lines_not_code;
    Alcotest.test_case "repo root discovery" `Quick test_find_repo_root;
    Alcotest.test_case "fig9 component accounting" `Quick test_fig9_totals_sane;
    Alcotest.test_case "fig9 table in EXPERIMENTS.md is current" `Quick test_fig9_table_current;
  ]
