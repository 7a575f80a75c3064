type t = {
  fn_blacklist : string list;
  member_blacklist : (string * string) list;
  drop_lock_members : bool;
  drop_atomic_members : bool;
}

let empty =
  {
    fn_blacklist = [];
    member_blacklist = [];
    drop_lock_members = false;
    drop_atomic_members = false;
  }

(* Init/teardown functions of the simulated subsystems: these run before the
   object is published (or after it became unreachable), so their lock-free
   accesses must not count as observations (paper Sec. 5.3, item 2). *)
let init_teardown_functions =
  [
    "inode_init_always";
    "inode_init_once";
    "alloc_inode";
    "destroy_inode";
    "free_inode_nonrcu";
    "d_alloc_init";
    "dentry_free";
    "jbd2_journal_init_common";
    "jbd2_journal_destroy";
    "jbd2_transaction_init";
    "jbd2_transaction_free";
    "journal_head_init";
    "journal_head_free";
    "buffer_head_init";
    "free_buffer_head";
    "sb_alloc_init";
    "destroy_super";
    "bdev_alloc_init";
    "bdev_free";
    "bdi_init";
    "bdi_exit";
    "cdev_init";
    "cdev_free";
    "pipe_alloc_init";
    "free_pipe_info";
  ]

(* Globally ignored helpers: accesses made through these explicitly bypass
   the locking discipline (paper Sec. 5.3, item 3). *)
let global_ignores =
  [
    "atomic_read";
    "atomic_set";
    "atomic_inc";
    "atomic_dec";
    "atomic_dec_and_test";
    "atomic_add";
    "atomic_cmpxchg";
    "cmpxchg";
    "test_bit";
    "set_bit_atomic";
    "clear_bit_atomic";
    "read_once";
    "write_once";
  ]

let default_member_blacklist =
  [
    (* Nested structures related to unobserved parts of the system. *)
    ("inode", "i_fsnotify_marks");
    ("inode", "i_fsnotify_mask");
    ("inode", "i_security");
    ("inode", "i_devices");
    ("inode", "i_wb_frn_winner");
    ("super_block", "s_security");
    ("super_block", "s_shrink");
    ("super_block", "s_pins");
    ("dentry", "d_fsdata");
    ("journal_t", "j_chksum_driver");
    ("journal_t", "j_wait_done_commit");
    ("journal_t", "j_wait_commit");
    ("journal_t", "j_wait_updates");
    ("journal_t", "j_wait_transaction_locked");
    ("journal_t", "j_wait_reserved");
    ("backing_dev_info", "owner");
    ("backing_dev_info", "dev_name");
    ("cdev", "kobj");
    ("transaction_t", "t_chp_stats");
    ("pipe_inode_info", "wait");
    ("block_device", "bd_holder_disks");
  ]

let default =
  {
    fn_blacklist = init_teardown_functions @ global_ignores;
    member_blacklist = default_member_blacklist;
    drop_lock_members = true;
    drop_atomic_members = true;
  }

let fn_blacklisted t frames =
  List.exists (fun frame -> List.mem frame t.fn_blacklist) frames

let blacklisted_members t ~ty =
  List.filter_map
    (fun (t, m) -> if String.equal t ty then Some m else None)
    t.member_blacklist

let member_blacklisted t ~ty ~member =
  List.exists (String.equal member) (blacklisted_members t ~ty)
