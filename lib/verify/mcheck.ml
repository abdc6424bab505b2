(* The crash-point model checker: exhaustive search over (component ×
   labeled recovery step), crashing each component mid-recovery at
   each of its steps and asking a caller-supplied runner whether the
   stack converged. The simulator is deterministic, so the enumeration
   is exhaustive and every counterexample replays. *)

type case = { component : string; step : string }

type verdict = {
  case : case;
  converged : bool;
  violations : Report.violation list;
  trace : string list;
}

type outcome = {
  verdicts : verdict list;  (* enumeration order *)
  skipped : case list;  (* budget exhausted before these ran *)
  elapsed : float;  (* CPU seconds spent searching *)
}

let enumerate specs =
  List.concat_map
    (fun (component, steps) ->
      List.map (fun step -> { component; step }) steps)
    specs

let search ?budget ~cases ~run () =
  let t0 = Sys.time () in
  let over () =
    match budget with None -> false | Some b -> Sys.time () -. t0 > b
  in
  let rec go acc = function
    | [] -> { verdicts = List.rev acc; skipped = []; elapsed = Sys.time () -. t0 }
    | rest when over () ->
        { verdicts = List.rev acc; skipped = rest; elapsed = Sys.time () -. t0 }
    | case :: rest -> go (run case :: acc) rest
  in
  go [] cases

let counterexamples o = List.filter (fun v -> not v.converged) o.verdicts
let ok o = counterexamples o = []

let report ~title o =
  let ces = counterexamples o in
  {
    Report.title;
    checks =
      [
        ("crash-points", List.length o.verdicts);
        ("converged", List.length o.verdicts - List.length ces);
        ("skipped", List.length o.skipped);
      ];
    violations =
      List.concat_map
        (fun v ->
          let where =
            Printf.sprintf "%s crashed after step %s" v.case.component
              v.case.step
          in
          match v.violations with
          | [] ->
              [
                {
                  Report.check = "no-convergence";
                  subject = where;
                  culprit = v.case.component;
                  detail =
                    "the stack did not return to a healthy state after the \
                     mid-recovery crash";
                };
              ]
          | vs ->
              List.map
                (fun (viol : Report.violation) ->
                  {
                    viol with
                    Report.subject =
                      Printf.sprintf "%s [%s]" viol.Report.subject where;
                  })
                vs)
        ces;
  }

let verdict_json v =
  let e = Report.json_escape in
  Printf.sprintf
    "{\"component\":\"%s\",\"step\":\"%s\",\"converged\":%b,\"violations\":[%s],\"trace\":[%s]}"
    (e v.case.component) (e v.case.step) v.converged
    (String.concat "," (List.map Report.violation_json v.violations))
    (String.concat "," (List.map (fun l -> "\"" ^ e l ^ "\"") v.trace))

let to_json ~title o =
  Printf.sprintf
    "{\"title\":\"%s\",\"ok\":%b,\"crash_points\":%d,\"converged\":%d,\"counterexamples\":[%s],\"skipped\":[%s],\"elapsed_s\":%.2f,\"verdicts\":[%s]}"
    (Report.json_escape title) (ok o) (List.length o.verdicts)
    (List.length o.verdicts - List.length (counterexamples o))
    (String.concat "," (List.map verdict_json (counterexamples o)))
    (String.concat ","
       (List.map
          (fun c ->
            Printf.sprintf "{\"component\":\"%s\",\"step\":\"%s\"}"
              (Report.json_escape c.component) (Report.json_escape c.step))
          o.skipped))
    o.elapsed
    (String.concat ","
       (List.map
          (fun v ->
            Printf.sprintf
              "{\"component\":\"%s\",\"step\":\"%s\",\"converged\":%b}"
              (Report.json_escape v.case.component)
              (Report.json_escape v.case.step) v.converged)
          o.verdicts))
