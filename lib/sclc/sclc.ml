type counts = { code : int; recovery : int }

let recovery_line_marker = "@recovery*)"
let recovery_begin = "(*@recovery-begin*)"
let recovery_end = "(*@recovery-end*)"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n > 0 && scan 0

(* One pass over the source: track comment nesting and string
   literals; a line is code when any character on it is outside both.
   Region markers toggle the recovery flag. *)
let count_string src =
  let code = ref 0 and recovery = ref 0 in
  let in_recovery = ref false in
  let comment_depth = ref 0 in
  let in_string = ref false in
  let lines = String.split_on_char '\n' src in
  List.iter
    (fun line ->
      let has_code = ref false in
      let n = String.length line in
      let i = ref 0 in
      while !i < n do
        let c = line.[!i] in
        if !in_string then begin
          if c = '\\' then incr i (* skip the escaped character *)
          else if c = '"' then in_string := false
        end
        else if !comment_depth > 0 then begin
          if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
            incr comment_depth;
            incr i
          end
          else if c = '*' && !i + 1 < n && line.[!i + 1] = ')' then begin
            decr comment_depth;
            incr i
          end
        end
        else if c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
          comment_depth := 1;
          incr i
        end
        else if c = '"' then begin
          in_string := true;
          has_code := true
        end
        else if c <> ' ' && c <> '\t' && c <> '\r' then has_code := true;
        incr i
      done;
      (* Region markers (they sit inside comments, so scan the raw
         line text). *)
      let is_begin = contains line recovery_begin in
      let is_end = contains line recovery_end in
      if !has_code then begin
        incr code;
        if !in_recovery || contains line recovery_line_marker then incr recovery
      end;
      if is_begin then in_recovery := true;
      if is_end then in_recovery := false)
    lines;
  { code = !code; recovery = !recovery }

let count_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  count_string content

let count_files paths =
  List.fold_left
    (fun acc path ->
      if Sys.file_exists path then begin
        let c = count_file path in
        { code = acc.code + c.code; recovery = acc.recovery + c.recovery }
      end
      else acc)
    { code = 0; recovery = 0 }
    paths

let find_repo_root () =
  let rec ascend dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else ascend parent
  in
  ascend (Sys.getcwd ())
