type violation = {
  check : string;
  subject : string;
  culprit : string;
  detail : string;
}

type t = {
  title : string;
  checks : (string * int) list;
  violations : violation list;
}

let ok t = t.violations = []

(* One exit-code convention across verify / mcheck / race so CI and
   bench-smoke can treat every checker alike: 0 clean, 1 violations.
   (2 is reserved by the CLI for unusable configurations.) *)
let exit_code t = if ok t then 0 else 1

let merge ~title reports =
  let checks =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (name, n) ->
            match List.assoc_opt name acc with
            | Some m -> (name, m + n) :: List.remove_assoc name acc
            | None -> acc @ [ (name, n) ])
          acc r.checks)
      [] reports
  in
  {
    title;
    checks;
    violations = List.concat_map (fun r -> r.violations) reports;
  }

let pp fmt t =
  Format.fprintf fmt "verifier: %s@." t.title;
  List.iter
    (fun (name, n) ->
      Format.fprintf fmt "  %-18s %4d subject%s checked@." name n
        (if n = 1 then "" else "s"))
    t.checks;
  (match t.violations with
  | [] -> Format.fprintf fmt "  OK: no violations@."
  | vs ->
      Format.fprintf fmt "  %d VIOLATION%s:@." (List.length vs)
        (if List.length vs = 1 then "" else "S");
      List.iter
        (fun v ->
          Format.fprintf fmt "  [%s] %s — culprit %s: %s@." v.check v.subject
            v.culprit v.detail)
        vs);
  ()

let to_string t = Format.asprintf "%a" pp t

(* Hand-rolled JSON: the string set is small and we must not pull in a
   json dependency for it. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let violation_json v =
  Printf.sprintf
    "{\"check\":\"%s\",\"subject\":\"%s\",\"culprit\":\"%s\",\"detail\":\"%s\"}"
    (json_escape v.check) (json_escape v.subject) (json_escape v.culprit)
    (json_escape v.detail)

let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"title\":\"%s\",\"ok\":%b,\"checks\":{"
       (json_escape t.title) (ok t));
  List.iteri
    (fun i (name, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape name) n))
    t.checks;
  Buffer.add_string buf "},\"violations\":[";
  Buffer.add_string buf (String.concat "," (List.map violation_json t.violations));
  Buffer.add_string buf "]}";
  Buffer.contents buf
