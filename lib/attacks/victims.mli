(** Victim programs for the Table 6 case studies: the NGINX model plus
    Apache-like (AOCR), Chrome-like (COOP), a plugin host that never
    calls mprotect (NEWTON CsCFI), a privileged daemon (root-command
    ROP), and dispatch-table models of the applications behind the
    seven CVEs. *)

type t = {
  v_name : string;
  v_build : unit -> Sil.Prog.t;
  v_setup : Kernel.Process.t -> unit;
}

(** The victim as a {!Workloads.Deployments} source, keyed by its
    name. *)
val source : t -> Workloads.Deployments.source

val nginx_params : Workloads.Nginx_model.params
val nginx : t
val sqlite : t
val apache : t
val chrome : t
val loader_app : t
val priv_daemon : t

(** Shape of a dispatch-table victim. *)
type dispatch_shape = {
  d_name : string;
  d_input : string;
  d_legit_exec : bool;
  d_legit_fork : bool;
  d_handlers : int;
}

val dispatch_victim : dispatch_shape -> t

val ffmpeg_http : t
val ffmpeg_rtmp : t
val php : t
val sudo : t
val libtiff : t
val python : t
