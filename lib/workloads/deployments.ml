(* The deployment cache: one table, one lock, one exact key, and the
   one path that stages a monitored session for the drivers and the
   attack runner. *)

type id =
  | Nginx of Nginx_model.params
  | Sqlite of Sqlite_model.params
  | Vsftpd of Vsftpd_model.params
  | Victim of string

type source = { id : id; prog : Sil.Prog.t Lazy.t }

(* Each part is a suspension forced only under [lock]; once forced it
   is never written again. *)
type entry = {
  bundle : Bastion.Api.protected Lazy.t;
  layout : Machine.Layout.t Lazy.t;  (* the plain entry's: [bundle]'s program's image *)
  deployment : Bastion.Api.deployment Lazy.t;
  spec : Defenses.Flow_prefilter.spec Lazy.t;  (* the plain entry's *)
  graph : Kernel.Seccomp.flow_graph Lazy.t;    (* [spec] on [deployment] *)
  unprotected : (Sil.Prog.t * Machine.Layout.t) Lazy.t;  (* the plain entry's *)
}

let lock = Mutex.create ()
let table : (id * bool * bool, entry) Hashtbl.t = Hashtbl.create 16

(* The app models fail fast on unsound metadata: their compile pass
   runs the registered lint validator (ROADMAP "linter as a library
   gate").  Registration happens here, at module initialisation, so
   linking the workloads library is enough to arm the gate. *)
let () = Bastion_analysis.Lint.register_api_validator ()

let validate = function Nginx _ | Sqlite _ | Vsftpd _ -> true | Victim _ -> false

(* Under [lock]. *)
let rec entry src ~fs ~pre_resolve =
  let key = (src.id, fs, pre_resolve) in
  match Hashtbl.find_opt table key with
  | Some e -> e
  | None ->
    let bundle, layout, spec, unprotected =
      if pre_resolve then
        let plain = entry src ~fs ~pre_resolve:false in
        ( lazy (Bastion_analysis.Preresolve.enrich (Lazy.force plain.bundle)),
          plain.layout, plain.spec, plain.unprotected )
      else
        let bundle =
          lazy
            (Bastion.Api.protect ~protect_filesystem:fs ~validate:(validate src.id)
               (Lazy.force src.prog))
        in
        ( bundle,
          lazy (Machine.Layout.build (Lazy.force bundle).inst.iprog),
          lazy (Bastion_analysis.Flowgraph.extract (Lazy.force bundle)),
          lazy (let p = Lazy.force src.prog in (p, Machine.Layout.build p)) )
    in
    let deployment =
      lazy (Bastion.Api.deploy ~layout:(Lazy.force layout) (Lazy.force bundle))
    in
    let graph =
      lazy (Bastion_analysis.Flowgraph.deploy (Lazy.force spec) (Lazy.force deployment))
    in
    let e = { bundle; layout; deployment; spec; graph; unprotected } in
    Hashtbl.replace table key e;
    e

let program src = Mutex.protect lock (fun () -> Lazy.force src.prog)

let bundle src ~fs ~pre_resolve =
  Mutex.protect lock (fun () -> Lazy.force (entry src ~fs ~pre_resolve).bundle)

let unprotected src ~fs =
  Mutex.protect lock (fun () -> Lazy.force (entry src ~fs ~pre_resolve:false).unprotected)

let stage ?bundle ?recorder ?prefilter ~machine_config ~monitor_config src ~fs
    ~pre_resolve =
  let with_graph graph = Option.map (fun mode -> (mode, graph ())) prefilter in
  let deployment, walk =
    match bundle with
    | Some b ->
      let d = Bastion.Api.deploy b in
      (d, with_graph (fun () -> Bastion_analysis.Flowgraph.(deploy (extract b) d)))
    | None ->
      Mutex.protect lock (fun () ->
          let e = entry src ~fs ~pre_resolve in
          (Lazy.force e.deployment, with_graph (fun () -> Lazy.force e.graph)))
  in
  let session = Bastion.Api.start ~machine_config ~monitor_config ?recorder deployment () in
  Option.iter
    (fun (mode, graph) ->
      ignore
        (Bastion_analysis.Flowgraph.attach ~mode graph ~monitor:session.monitor
           ~process:session.process))
    walk;
  session
