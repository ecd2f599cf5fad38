(** Cryptographic capabilities on storage object identifiers.

    "A key advantage of OBSDs and NASDs is that they allow for
    cryptographic protection of storage object identifiers if the network
    is insecure. This protection allows the µproxy to reside outside of
    the server ensemble's trust boundary. In this case, the damage from a
    compromised µproxy is limited to the files and directories that its
    client(s) had permission to access." (Section 2.2)

    Directory servers share a secret with the storage nodes and seal a
    capability tag into every file handle they mint; storage nodes verify
    the tag before serving I/O. The µproxy only ever forwards handles it
    was given, so compromising it does not mint new authority. The MAC is
    an MD5-based construction — keyed hashing in the spirit of the era's
    NASD prototypes; swap in a modern MAC for production use. *)

val seal : secret:string -> Fh.t -> Fh.t
(** The same handle with its capability tag filled in. *)

val verify : secret:string -> Fh.t -> bool
(** Does the handle carry the tag [secret] would mint for it? *)
