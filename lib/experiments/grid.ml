let map ?pool ?span f xs =
  let f =
    match span with
    | None -> f
    | Some sp -> fun x -> Telemetry.Span.time sp (fun () -> f x)
  in
  Array.to_list (Engine.Pool.map_opt pool f (Array.of_list xs))

let cell_span name =
  Telemetry.Registry.span (Printf.sprintf "experiments/%s/cell" name)
